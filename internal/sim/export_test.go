package sim

// Event kinds as checkpoints record them in EventState.Kind, for the
// external checkpoint tests.
const (
	KindServiceDone  = uint8(evServiceDone)
	KindStallRecover = uint8(evStallRecover)
)

// QueuedInHeap is the number of keys in the event queue's heap: nonzero
// only once the run has overflowed.
func (s *Simulator) QueuedInHeap() int { return len(s.events.keys) }
