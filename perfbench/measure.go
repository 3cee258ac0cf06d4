package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricName is the pattern every reported metric name matches.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally counts a pass's operations and keeps each one's latency at its
// position in the sequence, so passes over the same sequence line up.
type tally struct {
	attempted, failed int
	lat               []time.Duration // -1 where the operation failed
	errs              []string
}

func (t *tally) ok(d time.Duration) {
	t.attempted++
	t.lat = append(t.lat, d)
}

// fail records a failed operation; a failed operation has no latency
// (it counts as missing any latency limit).
func (t *tally) fail(err error) {
	t.attempted++
	t.failed++
	t.lat = append(t.lat, -1)
	if len(t.errs) < 5 {
		t.errs = append(t.errs, err.Error())
	}
}

// bestOf merges timing rounds over one sequence: each operation's
// latency is its fastest round. Other tenants of the host slow
// memory-bound code by up to 1.9x in stretches lasting from seconds to
// minutes, with brief fast moments even inside the slow stretches;
// rounds are a whole sequence apart, so a short operation timed in
// enough rounds meets a fast moment in one of them. An operation that
// failed in any round has no latency (-1).
func bestOf(rounds []tally) (best []time.Duration, attempted, failed int, errs []string) {
	for i, r := range rounds {
		attempted += r.attempted
		failed += r.failed
		errs = append(errs, r.errs...)
		if i == 0 {
			best = append([]time.Duration(nil), r.lat...)
			continue
		}
		for j, d := range r.lat {
			if d < 0 || best[j] < 0 {
				best[j] = -1
			} else if d < best[j] {
				best[j] = d
			}
		}
	}
	return best, attempted, failed, errs[:min(len(errs), 5)]
}

// succeeded drops the failed operations' entries from lat.
func succeeded(lat []time.Duration) []time.Duration {
	var out []time.Duration
	for _, d := range lat {
		if d >= 0 {
			out = append(out, d)
		}
	}
	return out
}

func sum(ds []time.Duration) time.Duration {
	var s time.Duration
	for _, d := range ds {
		s += d
	}
	return s
}

// quantile returns the q-quantile of xs by the nearest-rank rule (sorts
// a copy).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// millis converts latencies to milliseconds.
func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// peakRSSMB is the process's peak resident set from getrusage, in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// host is the fingerprint recorded with every result. Results from a
// host whose fingerprint differs from refs/host.json are flagged, not
// compared.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
}

func fingerprint() host {
	h := host{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), CPUModel: "unknown"}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// referenceHost is refs/host.json: the fingerprint of the host the
// benchmark's bounds and spreads were measured on.
type referenceHost struct {
	Host host `json:"host"`
}

// hostLine renders the fingerprint line printed before the result,
// flagging a host that differs from the reference one.
func hostLine(refDir string) string {
	h := fingerprint()
	match := false
	if raw, err := os.ReadFile(filepath.Join(refDir, "host.json")); err == nil {
		var ref referenceHost
		if json.Unmarshal(raw, &ref) == nil {
			match = ref.Host == h
		}
	}
	out, _ := json.Marshal(struct {
		Host          host `json:"host"`
		ReferenceHost bool `json:"reference_host"`
	}{h, match})
	if !match {
		return string(out) + "\nwarning: host fingerprint differs from refs/host.json; do not compare these figures with the recorded ones"
	}
	return string(out)
}

// printTable writes the human-readable metric table.
func printTable(title string, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("%s\n", title)
	for _, n := range names {
		fmt.Printf("  %-32s %14.4f %s\n", n, ms[n].Value, ms[n].Unit)
	}
}
