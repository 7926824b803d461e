package main

import "prog/lib"

func main() { _ = lib.Entry() }

func unused() {} // want "main\\.unused is reached from no root"
