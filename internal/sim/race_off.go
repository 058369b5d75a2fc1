//go:build !race

package sim

// freeCheck is Free's double-put check, kept only by the race build.
type freeCheck[T any] struct{}

func (*Free[T]) checkPut(*T) {}
