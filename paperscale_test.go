package pacifier_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"pacifier"
)

// The paper-scale pins: four recordings at the core counts of the
// paper's evaluation (16 and 64 tiles), every recorder co-recorded with
// ProfileCycles on. The 4-core determinism fixture barely exercises a
// busy 64-tile directory or cores that sit idle for long stretches, so
// these pins hold the simulated cycle count, the memop count, every
// mode's encoded log and the cycle-accounting report of machines where
// that happens. Any change to the simulated execution shows up here.
// Regenerate with:
//
//	PACIFIER_UPDATE_FIXTURE=1 go test -run TestPaperScaleFixture .

const paperScalePins = "testdata/paper_scale_pins.json"

var paperScaleConfigs = []struct {
	app   string
	cores int
}{
	{"fft", 16},
	{"cholesky", 16},
	{"radix", 64},
	{"water-nsq", 64},
}

func TestPaperScaleFixture(t *testing.T) {
	const seed, ops = 1, 2000
	update := os.Getenv("PACIFIER_UPDATE_FIXTURE") != ""
	var golden map[string]string
	if !update {
		blob, err := os.ReadFile(paperScalePins)
		if err != nil {
			t.Fatalf("missing paper-scale pins (run with PACIFIER_UPDATE_FIXTURE=1 to generate): %v", err)
		}
		if err := json.Unmarshal(blob, &golden); err != nil {
			t.Fatal(err)
		}
	}

	modes := fixtureModes(t)
	got := map[string]string{}
	for _, cfg := range paperScaleConfigs {
		w, err := pacifier.App(cfg.app, cfg.cores, ops, seed)
		if err != nil {
			t.Fatal(err)
		}
		run, err := pacifier.Record(w,
			pacifier.Options{Seed: seed, Atomic: true, ProfileCycles: true}, modes...)
		if err != nil {
			t.Fatalf("%s/p%d: %v", cfg.app, cfg.cores, err)
		}
		key := fmt.Sprintf("%s/p%d/s%d", cfg.app, cfg.cores, seed)
		got[key+"/cycles"] = fmt.Sprint(run.NativeCycles())
		got[key+"/memops"] = fmt.Sprint(run.MemOps())
		got[key+"/prof"] = profHash(t, run)
		for _, mode := range modes {
			blob, err := run.EncodedLog(mode)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(blob)
			got[fmt.Sprintf("%s/%v", key, mode)] = hex.EncodeToString(sum[:])
		}
	}

	if update {
		blob, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(paperScalePins, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d pins)", paperScalePins, len(got))
		return
	}
	for key, v := range got {
		if golden[key] == "" {
			t.Errorf("%s: no pinned value (regenerate the pins)", key)
		} else if golden[key] != v {
			t.Errorf("%s: changed: %s -> %s", key, golden[key], v)
		}
	}
	if len(golden) != len(got) {
		t.Errorf("pin file has %d values, the run produced %d", len(golden), len(got))
	}
}
