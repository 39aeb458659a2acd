// Package staleallow is a fixture for stale-suppression detection: one
// //lint:allow names a pass that runs and finds nothing, the other a
// pass that does not exist, so both comments are pure shelf-ware and
// -strict-allows must flag them.
package staleallow

func clean() int {
	//lint:allow blockleak stale excuse: nothing here ever leaked
	return 1
}

func unknown() int {
	//lint:allow nosuchpass excuse for a pass that is not in the suite
	return 2
}
