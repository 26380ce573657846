package main

import "fix/a"

func main() { println(a.Used()) }
