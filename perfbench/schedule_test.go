package main

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/rng"
)

func TestServeScheduleIsAFunctionOfTheSeed(t *testing.T) {
	dur := 4 * time.Second
	r1, s1, err := genServeSchedule(7, servePhases(dur))
	if err != nil {
		t.Fatal(err)
	}
	r2, s2, err := genServeSchedule(7, servePhases(dur))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r2) || !reflect.DeepEqual(s1, s2) {
		t.Fatalf("seed 7 produced two different schedules")
	}
	r3, _, err := genServeSchedule(8, servePhases(dur))
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(r1, r3) {
		t.Fatalf("seeds 7 and 8 produced the same schedule")
	}
}

func TestServeScheduleShape(t *testing.T) {
	dur := 20 * time.Second
	reqs, shots, err := genServeSchedule(1, servePhases(dur))
	if err != nil {
		t.Fatal(err)
	}
	simBodies := make(map[string]int)
	missBodies := make(map[string]bool)
	for p, pn := range phaseNames {
		pdur := time.Duration(spec.ServeOpen.Phases[pn] * float64(dur))
		for i, s := range shots[p] {
			if i > 0 && s.Due < shots[p][i-1].Due {
				t.Fatalf("%s: schedule not sorted by due time at %d", pn, i)
			}
			if s.Due < 0 || s.Due >= pdur {
				t.Fatalf("%s: due %v outside [0, %v)", pn, s.Due, pdur)
			}
			if reqs[s.Index].Phase != p {
				t.Fatalf("%s: shot points at a request of phase %d", pn, reqs[s.Index].Phase)
			}
		}
		// The offered rate matches the spec to within rounding per class.
		want := spec.ServeOpen.RatesRPS[pn] * pdur.Seconds()
		if got := float64(len(shots[p])); math.Abs(got-want) > float64(spec.ServeOpen.BurstSize)+3 {
			t.Errorf("%s: %v requests, want about %v", pn, got, want)
		}
	}
	for _, r := range reqs {
		switch r.Class {
		case classSim:
			simBodies[string(r.Body)]++
		case classBurst:
			simBodies[string(r.Body)]++
		case classMiss:
			if missBodies[string(r.Body)] {
				t.Errorf("fp-miss body %s repeats", r.Body)
			}
			missBodies[string(r.Body)] = true
		}
	}
	for b, n := range simBodies {
		if n != 1 && n != spec.ServeOpen.BurstSize {
			t.Errorf("simulate body %s appears %d times, want 1 (sim-miss) or %d (burst)", b, n, spec.ServeOpen.BurstSize)
		}
	}
	// Every generated body is a valid request.
	for _, r := range reqs[:50] {
		var v map[string]any
		if err := json.NewDecoder(bytes.NewReader(r.Body)).Decode(&v); err != nil {
			t.Fatalf("body %s: %v", r.Body, err)
		}
	}
}

func TestArrivalTimes(t *testing.T) {
	a := arrivalTimes(rng.New(3), 100, 10*time.Second)
	b := arrivalTimes(rng.New(3), 100, 10*time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same source seed, different arrival times")
	}
	if len(a) != 1000 {
		t.Errorf("%d arrivals at 100/s over 10 s, want exactly 1000", len(a))
	}
	for i := range a {
		if a[i] < 0 || a[i] >= 10*time.Second || (i > 0 && a[i] < a[i-1]) {
			t.Fatalf("arrival %d at %v: out of range or out of order", i, a[i])
		}
	}
	// Uniform placement: each second holds about a tenth of the arrivals.
	var perSecond [10]int
	for _, d := range a {
		perSecond[int(d/time.Second)]++
	}
	for s, n := range perSecond {
		if n < 60 || n > 140 {
			t.Errorf("second %d holds %d of 1000 arrivals", s, n)
		}
	}
	if c := arrivalTimes(rng.New(4), 100, 10*time.Second); reflect.DeepEqual(a, c) {
		t.Errorf("seeds 3 and 4 gave the same arrivals")
	}
	if arrivalTimes(rng.New(3), 0, time.Second) != nil {
		t.Errorf("rate 0 produced arrivals")
	}
}

func TestPermutationIsASeededShuffle(t *testing.T) {
	p := permutation(39, 5)
	if !reflect.DeepEqual(p, permutation(39, 5)) {
		t.Fatalf("same seed, different order")
	}
	seen := make([]bool, 39)
	for _, i := range p {
		if seen[i] {
			t.Fatalf("index %d twice", i)
		}
		seen[i] = true
	}
	if reflect.DeepEqual(p, permutation(39, 6)) {
		t.Errorf("seeds 5 and 6 gave the same order")
	}
}

func TestEvenTimes(t *testing.T) {
	d := evenTimes(14, 20*time.Second)
	if len(d) != 280 {
		t.Fatalf("%d offsets at 14/s over 20 s, want 280", len(d))
	}
	gap := time.Second / 14
	for i := 1; i < len(d); i++ {
		if g := d[i] - d[i-1]; g < gap-time.Microsecond || g > gap+time.Microsecond {
			t.Fatalf("gap %d is %v, want %v", i, g, gap)
		}
	}
	if d[0] != 0 || d[len(d)-1] >= 20*time.Second {
		t.Fatalf("offsets span [%v, %v], want within [0, 20s)", d[0], d[len(d)-1])
	}
}

func TestMissSpecsAreStratified(t *testing.T) {
	const n = 40 // four full rounds of the nine models and a partial one
	count := func(seed uint64) map[string]int {
		seen := make(map[string]bool)
		specs := missSpecs(rng.New(seed), n, seen)
		if len(specs) != n || len(seen) != n {
			t.Fatalf("seed %d: %d specs, %d distinct keys, want %d of each", seed, len(specs), len(seen), n)
		}
		rounds := (n + len(missModels) - 1) / len(missModels)
		byModel := make(map[string][]float64)
		for _, s := range specs {
			if s.Lambda < 0.5 || s.Lambda > 0.9 {
				t.Fatalf("seed %d: %s at λ=%v outside [0.5, 0.9]", seed, s.Model, s.Lambda)
			}
			if (s.Model == "multisteal") != (s.T == 4) {
				t.Fatalf("seed %d: %s with T=%d", seed, s.Model, s.T)
			}
			byModel[s.Model] = append(byModel[s.Model], s.Lambda)
		}
		out := make(map[string]int)
		for m, ls := range byModel {
			out[m] = len(ls)
			// The i-th request of a model falls in the i-th slice of
			// [0.5, 0.9]: each slice holds exactly one of its λ.
			slices := make(map[int]int)
			for _, l := range ls {
				slices[min(int((l-0.5)/0.4*float64(rounds)), rounds-1)]++
			}
			for k, c := range slices {
				if c != 1 {
					t.Errorf("seed %d: %s has %d requests in λ slice %d", seed, m, c, k)
				}
			}
		}
		return out
	}
	a, b := count(1), count(2)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("requests per model differ between seeds: %v and %v", a, b)
	}
	for _, m := range missModels {
		if a[m] < n/len(missModels) || a[m] > n/len(missModels)+1 {
			t.Errorf("%s asked %d times of %d", m, a[m], n)
		}
	}
}
