package replay

import "testing"

// FuzzRestoreState feeds arbitrary bytes through UnmarshalState,
// RestoreState and Step to the end of the schedule. A State may be
// rejected at either boundary, but one that is accepted must replay to
// completion without a panic. The corpus starts from every real
// checkpoint of synthLog.
func FuzzRestoreState(f *testing.F) {
	w, l := synthWorkload(), synthLog()
	seed, err := NewStepper(l, w, nil, synthConfig())
	if err != nil {
		f.Fatal(err)
	}
	for {
		b, err := seed.CaptureState().Marshal()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		if _, ok := seed.Step(); !ok {
			break
		}
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		st, err := UnmarshalState(b)
		if err != nil {
			return
		}
		s, err := NewStepper(l, w, nil, synthConfig())
		if err != nil {
			t.Fatal(err)
		}
		if err := s.RestoreState(st); err != nil {
			return
		}
		for n := 0; ; n++ {
			if _, ok := s.Step(); !ok {
				break
			}
			if n > l.TotalChunks() {
				t.Fatalf("stepped %d chunks of a %d-chunk log", n, l.TotalChunks())
			}
		}
		s.Finish()
		if _, err := s.CaptureState().Marshal(); err != nil {
			t.Fatal(err)
		}
	})
}
