package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// spec is the part of BENCHMARK.json the self-test checks against.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestEveryWorkloadEmitsEveryMetric runs each workload of BENCHMARK.json
// once untraced and once traced at the shortest run length, and requires
// zero failures and every listed metric with its listed unit.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload end to end")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var sp spec
	if err := json.Unmarshal(raw, &sp); err != nil {
		t.Fatal(err)
	}
	if len(sp.EndToEnd) != len(endToEndNames) || len(sp.PerLayer) != len(perLayerNames) {
		t.Fatalf("BENCHMARK.json lists %d/%d metrics, the benchmark measures %d/%d",
			len(sp.EndToEnd), len(sp.PerLayer), len(endToEndNames), len(perLayerNames))
	}
	dir := t.TempDir()
	ccserved := filepath.Join(dir, "ccserved")
	bench := filepath.Join(dir, "perfbench")
	for _, b := range [][]string{{"-o", ccserved, "parcc/cmd/ccserved"}, {"-o", bench, "."}} {
		out, err := exec.Command("go", append([]string{"build"}, b...)...).CombinedOutput()
		if err != nil {
			t.Fatalf("go build %v: %v\n%s", b, err, out)
		}
	}
	for _, wl := range sp.Workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(wl.Name+"/trace="+trace, func(t *testing.T) {
				cmd := exec.Command(bench, "--workload", wl.Name, "--seed", "7", "--seconds", "1",
					"--trace", trace, "-ccserved", ccserved, "-work", filepath.Join(dir, "work"))
				var stdout, stderr bytes.Buffer
				cmd.Stdout, cmd.Stderr = &stdout, &stderr
				if err := cmd.Run(); err != nil {
					t.Fatalf("%v\n%s", err, stderr.Bytes())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v", err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, stderr.Bytes())
				}
				want := sp.EndToEnd
				if trace == "1" {
					want = sp.PerLayer
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok {
						t.Errorf("metric %s missing", m.Name)
					} else if got.Unit != m.Unit {
						t.Errorf("metric %s: unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					}
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics printed, %d listed", len(res.Metrics), len(want))
				}
			})
		}
	}
}
