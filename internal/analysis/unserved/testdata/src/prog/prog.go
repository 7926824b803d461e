package prog

import "prog/lib"

// Exported is the facade's surface.
func Exported() { lib.FromFacade() }

func unexported() {} // want "prog\\.unexported is reached from no root"
