package chanfabric

import "rftp/internal/verbs"

// Loop and NewLoop are kept for benchmark/harness.go; everything else
// uses verbs.WallLoop directly.
type Loop = verbs.WallLoop

// NewLoop creates and starts a verbs.WallLoop.
func NewLoop(name string) *Loop { return verbs.NewWallLoop(name) }
