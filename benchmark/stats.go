package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

// metric is one reported number. For an end-to-end metric Value is the
// median over the timed segments (or the set-up repeats) and Min, Max and N
// describe those samples.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	N     int     `json:"n"`
}

// result is everything one run of one workload reports; -out files hold a
// list of them.
type result struct {
	Workload    string            `json:"workload"`
	Traced      bool              `json:"traced"`
	Correct     bool              `json:"correct"`
	Attempted   int               `json:"attempted_ops"`
	Failed      int               `json:"failed_ops"`
	FirstError  string            `json:"first_error,omitempty"`
	Metrics     map[string]metric `json:"metrics"`
	Diagnostics map[string]metric `json:"diagnostics"`
	Budget      []budgetRow       `json:"budget,omitempty"`
	Env         envInfo           `json:"env"`
}

func newResult(w *workloadSpec, e *env, traced bool) *result {
	return &result{
		Workload:    w.name,
		Traced:      traced,
		Metrics:     map[string]metric{},
		Diagnostics: map[string]metric{},
		Env:         readEnv(e),
	}
}

func (r *result) metric(name, unit string, samples []float64) {
	r.Metrics[name] = summarize(unit, samples)
}

func (r *result) diag(name string, v float64, unit string) {
	r.Diagnostics[name] = metric{Value: v, Unit: unit, Min: v, Max: v, N: 1}
}

func summarize(unit string, samples []float64) metric {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return metric{Value: median(s), Unit: unit, Min: s[0], Max: s[len(s)-1], N: len(s)}
}

// median of an ascending slice.
func median(s []float64) float64 {
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentileUs reads quantile p from ascending nanosecond latencies.
func percentileUs(sorted []int64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return float64(sorted[int(p*float64(len(sorted)-1))]) / 1e3
}

// envInfo records where the numbers were taken, so latencies are read as
// this sandbox's and not a device's.
type envInfo struct {
	Scale      string `json:"scale"`
	Seed       int64  `json:"seed"`
	SegmentOps int    `json:"segment_ops"`
	Callers    int    `json:"callers"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	TempDirFS  string `json:"temp_dir_fs"`
}

func readEnv(e *env) envInfo {
	return envInfo{
		Scale:      e.sz.name,
		Seed:       e.seed,
		SegmentOps: e.segOps,
		Callers:    e.callers,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     vcsRevision(),
		TempDirFS:  fsType(e.dir),
	}
}

// vcsRevision is the commit stamped into the binary; a checkout that is not
// a git repository has none.
func vcsRevision() string {
	rev, dirty := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				rev = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+uncommitted"
			}
		}
	}
	return rev + dirty
}

func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}

// peakRSSMB is the process's high-water resident set (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(fields[1], 64)
			return kb / 1024
		}
	}
	return 0
}
