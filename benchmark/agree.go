package main

import (
	"fmt"
	"math"
)

// benchmarkSpec is the part of BENCHMARK.json that -agree needs.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runSet is one workload's runs in one -out file.
type runSet struct {
	attempted, failed int
	values            map[string][]float64 // metric -> one value per run
	unit              map[string]string
}

func readRunSets(path string) (order []string, sets map[string]*runSet, err error) {
	var results []*result
	if err := readJSON(path, &results); err != nil {
		return nil, nil, err
	}
	sets = map[string]*runSet{}
	for _, r := range results {
		s := sets[r.Workload]
		if s == nil {
			s = &runSet{values: map[string][]float64{}, unit: map[string]string{}}
			sets[r.Workload] = s
			order = append(order, r.Workload)
		}
		s.attempted += r.Attempted
		s.failed += r.Failed
		for name, m := range r.Metrics {
			s.values[name] = append(s.values[name], m.Value)
			s.unit[name] = m.Unit
		}
	}
	return order, sets, nil
}

func (s *runSet) failShare() float64 {
	if s.attempted == 0 {
		return 1
	}
	return float64(s.failed) / float64(s.attempted)
}

// agreeMain compares two -out files. They disagree when, for any workload,
// the median over its runs of any end-to-end metric differs by more than the
// metric's bound, relative to the first file, or when the share of failed
// operations rose.
func agreeMain(specPath string, files []string) error {
	if len(files) != 2 {
		return fmt.Errorf("-agree takes two result files, got %d", len(files))
	}
	var spec benchmarkSpec
	if err := readJSON(specPath, &spec); err != nil {
		return fmt.Errorf("reading bounds: %w", err)
	}
	order, first, err := readRunSets(files[0])
	if err != nil {
		return err
	}
	_, second, err := readRunSets(files[1])
	if err != nil {
		return err
	}
	disagreements := 0
	complain := func(format string, args ...any) {
		disagreements++
		fmt.Printf("DISAGREE "+format+"\n", args...)
	}
	for _, workload := range order {
		a, b := first[workload], second[workload]
		if b == nil {
			complain("%s: missing from %s", workload, files[1])
			continue
		}
		if b.failShare() > a.failShare() {
			complain("%s failed_ops/attempted_ops rose from %d/%d to %d/%d", workload, a.failed, a.attempted, b.failed, b.attempted)
		}
		for _, m := range spec.EndToEnd {
			va, vb := a.values[m.Name], b.values[m.Name]
			if len(va) == 0 || len(vb) == 0 {
				complain("%s %s: not reported by both", workload, m.Name)
				continue
			}
			ma, mb := summarize("", va).Value, summarize("", vb).Value
			change := (mb - ma) / ma
			direction := "better"
			if (change > 0) == (m.Better == "lower") {
				direction = "worse"
			}
			verdict := "ok"
			if math.Abs(change) > m.Bound {
				verdict = "DISAGREE"
				disagreements++
			}
			fmt.Printf("%-8s %-14s %-8s %14.4f -> %14.4f %-4s %+6.2f%% (%s, bound %.0f%%, medians of %d and %d runs)\n",
				verdict, workload, m.Name, ma, mb, a.unit[m.Name], change*100, direction, m.Bound*100, len(va), len(vb))
		}
	}
	if disagreements > 0 {
		return fmt.Errorf("%d metric and workload pairs disagree", disagreements)
	}
	fmt.Println("the two sets of runs agree")
	return nil
}
