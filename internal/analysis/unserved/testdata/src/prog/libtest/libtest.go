package libtest

import "prog/lib"

// Helper is test support other packages' tests import.
func Helper() { lib.OnlyTests() }

func helper() {} // want "libtest\\.helper is reached from no root"
