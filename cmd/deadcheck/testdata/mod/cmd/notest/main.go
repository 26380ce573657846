// Command notest has a _test.go file that declares no test.
package main

func main() {}
