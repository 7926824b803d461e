package main

import (
	"prog"
	"prog/lib"
)

func main() {
	prog.Exported()
	_ = lib.Entry()
}

func unused() {} // want "main\\.unused is reached from no root"
