package prog

import "prog/lib"

// Exported is the facade's surface the fixture's main calls.
func Exported() { lib.FromFacade() }

// Uncalled is an export of the facade no main calls.
func Uncalled() {} // want "prog\\.Uncalled is reached from no root"

func unexported() {} // want "prog\\.unexported is reached from no root"
