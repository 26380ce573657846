package main
