package sim

// Free is a free list of idle records with one writer, the recycling
// idiom of every single-writer record (events, coroutines, jobs, call
// records). Get hands back the record put most recently, so reuse order
// and every digest are the run's own; it returns nil from an empty list,
// and the caller builds the record. Records that cross shard goroutines
// recycle through a sync.Pool instead (DESIGN §5 "Frame ownership").
// Under the race detector Put panics on a record already on the list.
type Free[T any] struct {
	check freeCheck[T] // first: zero-size outside -race, so no padding
	list  []*T
}

// Get takes the record put most recently, or returns nil.
func (f *Free[T]) Get() *T {
	l := f.list
	n := len(l) - 1
	if n < 0 {
		return nil
	}
	r := l[n]
	l[n] = nil
	f.list = l[:n]
	return r
}

// Put hands r back; the caller has already dropped what r refers to.
func (f *Free[T]) Put(r *T) {
	f.checkPut(r)
	f.list = append(f.list, r)
}
