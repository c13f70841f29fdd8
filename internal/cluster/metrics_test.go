package cluster

import (
	"flag"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

var updateGoldens = flag.Bool("update", false, "rewrite the /metrics shape golden under testdata/")

// exposition renders a node's metric families.
func exposition(n *Node) string {
	return string(n.Metrics().AppendText(nil))
}

// exposeShape reduces an exposition to every HELP/TYPE line verbatim and
// every sample's name and label set with its value scrubbed, the samples
// of each family sorted; peer URLs become their harness index.
func exposeShape(text string, h *harness) string {
	for i, s := range h.srvs {
		text = strings.ReplaceAll(text, s.URL, "peer"+string(rune('0'+i)))
	}
	var out, fam []string
	flush := func() {
		sort.Strings(fam)
		out = append(out, fam...)
		fam = fam[:0]
	}
	for _, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			flush()
			out = append(out, line)
			continue
		}
		if i := strings.LastIndexByte(line, ' '); i >= 0 {
			line = line[:i] + " V"
		}
		fam = append(fam, line)
	}
	flush()
	return strings.Join(out, "\n") + "\n"
}

// TestMetricsShapeGolden pins every cluster family name, HELP text, TYPE
// and label set against a golden recorded before the metrics registry
// replaced the hand-rolled counter bag: a victim that had work stolen and
// then lost its peer (gossip ok and fail, a tripped peer breaker).
func TestMetricsShapeGolden(t *testing.T) {
	h := newHarness(t, 2, []int{1, 4}, nil)
	release := blockPool(h.pools[0])
	defer release()
	cell := offerCell(t, h, 0, 31)
	h.nodes[0].Start()
	h.nodes[1].Start()
	select {
	case <-cell.Done():
	case <-time.After(15 * time.Second):
		t.Fatal("cell never resolved")
	}
	// A node leaves standalone mode only after a successful poll, so this
	// guarantees an ok gossip series; going back guarantees a failed one.
	waitFor(t, 5*time.Second, "node 0 never saw its peer", func() bool {
		return !h.nodes[0].ClusterStatus().Standalone
	})
	h.srvs[1].CloseClientConnections()
	h.srvs[1].Close()
	waitFor(t, 5*time.Second, "node 0 never degraded to standalone", func() bool {
		return h.nodes[0].ClusterStatus().Standalone
	})

	got := exposeShape(exposition(h.nodes[0]), h)
	path := filepath.Join("testdata", "metrics_node.golden")
	if *updateGoldens {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Errorf("cluster /metrics shape differs from %s:\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}
