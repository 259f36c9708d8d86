package experiments

import "time"

// stopwatch measures wall time. Its clock is the package's only read
// of the wall clock: everything else an experiment computes follows
// from its seeds. A measured time reaches Outcome.Elapsed or a
// result's Timing, which cmd/experiments prints in the report header,
// never a report body, so bodies stay byte-identical across runs and
// worker counts.
type stopwatch struct{ start time.Time }

func startStopwatch() stopwatch { return stopwatch{wallClock()} }

// elapsed returns the wall time since the stopwatch started.
func (s stopwatch) elapsed() time.Duration { return wallClock().Sub(s.start) }

func wallClock() time.Time {
	//lint:allow detrand the stopwatch's clock: timings reach only Outcome.Elapsed and report headers
	return time.Now()
}
