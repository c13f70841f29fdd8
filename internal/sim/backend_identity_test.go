package sim

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dist"
)

// identityGolden holds the resultKey of every identityCases run, one line
// per engine and seed. It was recorded before the DES and hybrid engines
// were rebuilt around one shared tracked-processor core, and it is the only
// byte-level pin on the hybrid engine's output (the DES goldens cover DES
// configurations only). Regenerate (go test -run TestCrossBackendIdentity
// -update) only for an intentional behavior change.
var identityGolden = filepath.Join("testdata", "goldens", "engine_identity.golden.txt")

// identitySeeds are the pinned seeds of the identity file.
var identitySeeds = []uint64{7, 42, 1998}

// identityCases returns one steal configuration per simulation backend
// (engine kind), plus a hybrid run with every sampler switched on.
func identityCases() []struct {
	name string
	o    Options
} {
	base := Options{
		N:       64,
		Lambda:  0.9,
		Service: dist.NewExponential(1),
		Policy:  PolicySteal,
		T:       2,
		Horizon: 400,
		Warmup:  40,
	}
	des, fluid, hybrid, hybridAll := base, base, base, base
	des.Engine = EngineDES
	// Exercise the samplers and the multi-victim path too.
	des.D = 2
	des.TailDepth = 6
	des.SeriesEvery = 20
	des.QueueHistDepth = 6
	fluid.Engine = EngineFluid
	hybrid.Engine = EngineHybrid
	hybrid.Tracked = 16
	hybrid.TailDepth = 6
	// Every hybrid sampler and the retry chain, which the plain hybrid
	// case leaves off.
	hybridAll.Engine = EngineHybrid
	hybridAll.Tracked = 16
	hybridAll.RetryRate = 1
	hybridAll.TailDepth = 6
	hybridAll.QueueHistDepth = 6
	hybridAll.SeriesEvery = 20
	hybridAll.SojournHistMax = 50
	return []struct {
		name string
		o    Options
	}{{"des", des}, {"fluid", fluid}, {"hybrid", hybrid}, {"hybrid-samplers", hybridAll}}
}

// identityLines renders the resultKey of one backend's pinned seeds.
func identityLines(t *testing.T, name string, o Options) []string {
	t.Helper()
	var lines []string
	for _, seed := range identitySeeds {
		o.Seed = seed
		res, err := Run(o)
		if err != nil {
			t.Fatalf("%s seed %d: %v", name, seed, err)
		}
		lines = append(lines, fmt.Sprintf("%s seed%d %s", name, seed, resultKey(res)))
	}
	return lines
}

// TestCrossBackendIdentity pins every simulation backend (des, fluid and
// hybrid) byte-for-byte against identityGolden. A divergence means the
// engine changed its event order, its random draws, or its accounting —
// caught end-to-end, through the full engine, samplers, and metrics stack.
func TestCrossBackendIdentity(t *testing.T) {
	cases := identityCases()
	if *updateGoldens {
		var all []string
		for _, c := range cases {
			all = append(all, identityLines(t, c.name, c.o)...)
		}
		if err := os.WriteFile(identityGolden, []byte(strings.Join(all, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s", identityGolden)
		return
	}
	raw, err := os.ReadFile(identityGolden)
	if err != nil {
		t.Fatalf("missing identity golden: %v", err)
	}
	want := make(map[string]string)
	for _, line := range strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n") {
		name, seed, _ := strings.Cut(line, " ")
		seed, _, _ = strings.Cut(seed, " ")
		want[name+" "+seed] = line
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			for i, got := range identityLines(t, c.name, c.o) {
				id := fmt.Sprintf("%s seed%d", c.name, identitySeeds[i])
				if w, ok := want[id]; !ok {
					t.Errorf("%s: no line in %s", id, identityGolden)
				} else if got != w {
					t.Errorf("%s drifted from %s:\ngot:  %s\nwant: %s", id, identityGolden, got, w)
				}
			}
		})
	}
}
