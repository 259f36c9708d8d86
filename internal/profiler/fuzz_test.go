package profiler

import (
	"fmt"
	"math"
	"testing"

	"npudvfs/internal/npu"
	"npudvfs/internal/op"
	"npudvfs/internal/powersim"
	"npudvfs/internal/workload"
)

// FuzzProfilerSession drives one Profiler through a session the fuzz
// bytes choose, two bytes a step: an opcode and its argument. The
// steps edit specs in place, swap and copy entries, re-slice or copy
// the trace, switch the frequency and the ground, and interleave Run
// and RunPower. Every call, and the die temperature after it, must
// match refRun / refRunPower bit for bit, and a call over an invalid
// entry must fail as the reference does and leave the sensor where it
// leaves it. This is what guards the operator table's same-trace
// reuse: a remembered place whose entry was edited, moved or cut off
// since must be looked up afresh.
func FuzzProfilerSession(f *testing.F) {
	vit, err := workload.ByName("vit")
	if err != nil {
		f.Fatal(err)
	}
	base := vit.Trace[:48]

	f.Add(byte(1), []byte{0, 0, 0, 0, 1, 0, 0, 0})                         // power, power, timing, power
	f.Add(byte(1), []byte{0, 0, 2, 5, 0, 0, 4, 9, 0, 0, 3, 0, 1, 0, 0, 0}) // in-place edits between power runs
	f.Add(byte(0), []byte{0, 0, 5, 6, 0, 0, 5, 7, 0, 0, 10, 0, 0, 0})      // shrunk at either end, then whole again
	f.Add(byte(3), []byte{0, 0, 6, 0, 0, 0, 9, 12, 0, 0, 1, 0})            // a copy, then an entry copied over another
	f.Add(byte(5), []byte{0, 0, 7, 0, 0, 0, 8, 1, 0, 0, 7, 2, 1, 0, 0, 0}) // frequency and ground switches
	f.Add(byte(7), []byte{0, 0, 9, 13, 0, 0, 1, 0, 9, 14, 0, 0})           // an invalid entry, then repaired
	f.Add(byte(0), []byte{3, 9, 1, 0, 3, 8, 1, 0})                         // a zero load, then one of the other sign

	f.Fuzz(func(t *testing.T, seed byte, steps []byte) {
		chip := npu.Default()
		scaled := *powersim.Default(chip)
		scaled.Chip = chip.WithUncoreScale(0.8)
		grounds := []*powersim.Ground{powersim.Default(chip), &scaled}
		freqs := []float64{1000, 1400, 1800}

		full := append([]op.Spec(nil), base...)
		cur := full
		prod, ref := NewNoiseless(chip), NewNoiseless(chip)
		if seed%2 == 1 {
			prod, ref = New(chip, int64(seed)), New(chip, int64(seed))
		}
		s := newSession(prod, ref)
		fMHz, g := 1800.0, grounds[0]
		calls := 0
		for i := 0; i+1 < len(steps) && calls < 40; i += 2 {
			a := int(steps[i+1])
			at, other := a%len(cur), (a*7+3)%len(cur)
			switch steps[i] % 11 {
			case 0:
				calls++
				s.call(t, fmt.Sprintf("step %d: RunPower", i/2), cur, fMHz, g)
			case 1:
				calls++
				s.call(t, fmt.Sprintf("step %d: Run", i/2), cur, fMHz, nil)
			case 2:
				cur[at].Blocks++
			case 3:
				// A zero of either sign, which the table's == does not
				// tell apart and every result must treat alike, or an L2
				// hit rate from the byte.
				k := (a / 4) % len(cur)
				switch a % 4 {
				case 0:
					cur[k].LoadBytes = math.Copysign(0, -1)
				case 1:
					cur[k].LoadBytes = 0
				case 2:
					cur[k].L2Hit = math.Copysign(0, -1)
				default:
					cur[k].L2Hit = float64(a) / 255
				}
			case 4:
				cur[at], cur[other] = cur[other], cur[at]
			case 5:
				cur = cur[at:]
			case 6:
				cur = append([]op.Spec(nil), cur...)
			case 7:
				fMHz = freqs[a%len(freqs)]
			case 8:
				g = grounds[a%len(grounds)]
			case 9:
				k := (a / 3) % len(cur)
				switch a % 3 {
				case 0:
					cur[k] = cur[other]
				case 1:
					cur[k].Blocks, cur[k].FixedTime = 0, 0 // invalid in every class
				default:
					cur[k] = base[k]
				}
			case 10:
				if a%2 == 0 {
					cur = full
				} else {
					cur = cur[:len(cur)-at]
				}
			}
		}
	})
}
