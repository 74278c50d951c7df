package sim

// Event kinds as checkpoints record them in EventState.Kind, for the
// external checkpoint tests.
const (
	KindServiceDone  = uint8(evServiceDone)
	KindStallRecover = uint8(evStallRecover)
)
