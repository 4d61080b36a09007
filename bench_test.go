// Benchmarks for the paper's debugging scenarios E3–E10 (Tables 1 and 2,
// the §3.3 debugging query, replay, retroaction, the §4.2 security
// detections and the §4.1 case studies), driven through
// internal/experiments. Custom metrics carry the quantities the paper
// reports (rows, steps, schedules, cases). The paper's performance claims —
// E1 tracing cost per request and E2 provenance-query latency — are the
// app.* and prov.query workloads of the benchmark command
// (go run ./benchmark; see benchmark/README.md).
package trod_test

import (
	"testing"

	"repro/internal/experiments"
)

// BenchmarkE3Table1 regenerates the paper's Table 1 from a live scenario.
func BenchmarkE3Table1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sc, err := experiments.NewScenario()
		if err != nil {
			b.Fatal(err)
		}
		rows, err := experiments.RunE3Table1(sc)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(rows.Rows)), "rows")
		sc.Close()
	}
}

// BenchmarkE4Table2 regenerates the paper's Table 2 (data operations log).
func BenchmarkE4Table2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sc, err := experiments.NewScenario()
		if err != nil {
			b.Fatal(err)
		}
		rows, err := experiments.RunE4Table2(sc)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(rows.Rows)), "rows")
		sc.Close()
	}
}

// BenchmarkE5DebugQuery regenerates the §3.3 debugging query result
// ((TS3, R2, subscribeUser), (TS4, R1, subscribeUser) in the paper).
func BenchmarkE5DebugQuery(b *testing.B) {
	sc, err := experiments.NewScenario()
	if err != nil {
		b.Fatal(err)
	}
	defer sc.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunE5DebugQuery(sc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE6Replay regenerates Figure 3 (top): faithful replay with
// foreign-write injection.
func BenchmarkE6Replay(b *testing.B) {
	sc, err := experiments.NewScenario()
	if err != nil {
		b.Fatal(err)
	}
	defer sc.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		report, err := experiments.RunE6Replay(sc)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(report.Steps)), "steps")
	}
}

// BenchmarkE7Retro regenerates Figure 3 (bottom): retroactive testing of
// the fix over both request orders.
func BenchmarkE7Retro(b *testing.B) {
	sc, err := experiments.NewScenario()
	if err != nil {
		b.Fatal(err)
	}
	defer sc.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		report, err := experiments.RunE7Retro(sc)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(report.Schedules)), "schedules")
	}
}

// BenchmarkE8AccessControl regenerates the §4.2 User Profiles detection.
func BenchmarkE8AccessControl(b *testing.B) {
	sc, err := experiments.NewSecurityScenario()
	if err != nil {
		b.Fatal(err)
	}
	defer sc.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunE8AccessControl(sc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE9Exfiltration regenerates the §4.2 workflow forensics.
func BenchmarkE9Exfiltration(b *testing.B) {
	sc, err := experiments.NewSecurityScenario()
	if err != nil {
		b.Fatal(err)
	}
	defer sc.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunE9Exfiltration(sc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE10CaseStudies runs the three §4.1 case studies end to end
// (reproduce → locate → replay → retro-validate the fix).
func BenchmarkE10CaseStudies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results, err := experiments.RunE10CaseStudies()
		if err != nil {
			b.Fatal(err)
		}
		ok := 0
		for _, r := range results {
			if r.Located && r.Replayed && r.FixValidated {
				ok++
			}
		}
		b.ReportMetric(float64(ok), "cases-pass")
	}
}
