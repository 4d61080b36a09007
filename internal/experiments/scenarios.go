// Package experiments runs the paper's debugging scenarios end to end: the
// MDL-59854 race and its Tables 1 and 2 (E3, E4), the §3.3 debugging query
// (E5), faithful replay and retroactive validation of the fix (E6, E7), the
// §4.2 security detections (E8, E9) and the §4.1 case studies (E10).
// cmd/trod-demo prints them; the root bench suite (bench_test.go) times
// them. The paper's performance claims (E1 tracing cost, E2 query latency)
// are measured by the benchmark command instead (go run ./benchmark).
package experiments

import (
	"fmt"
	"strings"

	"repro/internal/db"
	"repro/internal/detect"
	"repro/internal/replay"
	"repro/internal/retro"
	"repro/internal/runtime"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Scenario bundles the canonical MDL-59854 production run used by E3–E7:
// R1/R2 racing subscribeUser(U1, F2), then R3 fetchSubscribers failing.
type Scenario struct {
	Prod   *db.DB
	Prov   *db.DB
	App    *runtime.App
	Tracer *trace.Tracer
	// LateReq/EarlyReq order the two racing requests by insert commit.
	LateReq, EarlyReq string
	// FetchErr is R3's production error (the bug's symptom).
	FetchErr error
}

// Close releases the scenario's resources.
func (s *Scenario) Close() {
	s.Tracer.Close()
	s.Prod.Close()
	s.Prov.Close()
}

// NewScenario reproduces the paper's running example in production with
// tracing attached.
func NewScenario() (*Scenario, error) {
	prod := db.MustOpenMemory()
	prov := db.MustOpenMemory()
	if err := workload.SetupMoodle(prod); err != nil {
		return nil, err
	}
	app := runtime.New(prod)
	workload.RegisterMoodle(app)
	tr, err := trace.Attach(app, prov, trace.Config{Tables: workload.MoodleTables})
	if err != nil {
		return nil, err
	}
	sc := &Scenario{Prod: prod, Prov: prov, App: app, Tracer: tr}
	if err := workload.RaceSubscribe(app, "R1", "R2", "U1", "F2"); err != nil {
		return nil, err
	}
	_, sc.FetchErr = app.InvokeWithReqID("R3", "fetchSubscribers", runtime.Args{"forum": "F2"})
	if sc.FetchErr == nil {
		return nil, fmt.Errorf("experiments: the race did not manifest")
	}
	if err := tr.Flush(); err != nil {
		return nil, err
	}
	res, err := prov.Query(`SELECT Timestamp, ReqId FROM Executions as E, ForumEvents as F
		ON E.TxnId = F.TxnId
		WHERE F.UserId = 'U1' AND F.Forum = 'F2' AND F.Type = 'Insert'
		ORDER BY Timestamp ASC`)
	if err != nil {
		return nil, err
	}
	if len(res.Rows) != 2 {
		return nil, fmt.Errorf("experiments: debug query returned %d rows, want 2", len(res.Rows))
	}
	sc.EarlyReq = res.Rows[0][1].AsText()
	sc.LateReq = res.Rows[1][1].AsText()
	return sc, nil
}

// RunE3Table1 regenerates the paper's Table 1 (the transaction execution
// log for the scenario's committed transactions).
func RunE3Table1(sc *Scenario) (*db.Rows, error) {
	return sc.Prov.Query(`SELECT TxnId, Timestamp, HandlerName, ReqId, Func
		FROM Executions WHERE Committed = TRUE ORDER BY Timestamp`)
}

// RunE4Table2 regenerates the paper's Table 2 (the data operations log).
func RunE4Table2(sc *Scenario) (*db.Rows, error) {
	return sc.Prov.Query(`SELECT TxnId, Type, Query, UserId, Forum
		FROM ForumEvents ORDER BY EvId`)
}

// RunE5DebugQuery runs the §3.3 query and validates its shape: exactly two
// rows, same handler, two distinct requests, ascending timestamps.
func RunE5DebugQuery(sc *Scenario) (*db.Rows, error) {
	res, err := sc.Prov.Query(`SELECT Timestamp, ReqId, HandlerName
		FROM Executions as E, ForumEvents as F
		ON E.TxnId = F.TxnId
		WHERE F.UserId = 'U1' AND F.Forum = 'F2'
		AND F.Type = 'Insert'
		ORDER BY Timestamp ASC`)
	if err != nil {
		return nil, err
	}
	if len(res.Rows) != 2 {
		return nil, fmt.Errorf("E5: got %d rows, want 2", len(res.Rows))
	}
	if res.Rows[0][2].AsText() != "subscribeUser" || res.Rows[1][2].AsText() != "subscribeUser" {
		return nil, fmt.Errorf("E5: wrong handlers %v", res.Rows)
	}
	if res.Rows[0][1].AsText() == res.Rows[1][1].AsText() {
		return nil, fmt.Errorf("E5: rows should come from two requests")
	}
	if res.Rows[0][0].AsInt() >= res.Rows[1][0].AsInt() {
		return nil, fmt.Errorf("E5: timestamps not ascending")
	}
	return res, nil
}

// RunE6Replay replays the late request and validates Figure 3 (top):
// faithful, two steps, foreign write injected before the second.
func RunE6Replay(sc *Scenario) (*replay.Report, error) {
	rp := replay.New(sc.Prod, sc.Tracer.Writer())
	report, err := rp.Replay(sc.LateReq, workload.RegisterMoodle, replay.Options{})
	if err != nil {
		return nil, err
	}
	if report.Diverged {
		return nil, fmt.Errorf("E6: replay diverged: %v", report.Diffs)
	}
	if len(report.Steps) != 2 || len(report.Steps[1].Injected) == 0 {
		return nil, fmt.Errorf("E6: unexpected steps %+v", report.Steps)
	}
	if len(report.ForeignWriters) != 1 || report.ForeignWriters[0] != sc.EarlyReq {
		return nil, fmt.Errorf("E6: foreign writers %v", report.ForeignWriters)
	}
	return report, nil
}

// RunE7Retro retro-tests the fix over R1/R2/R3 and validates Figure 3
// (bottom): both request orders explored, every interleaving clean.
func RunE7Retro(sc *Scenario) (*retro.Report, error) {
	rt := retro.New(sc.Prod, sc.Tracer.Writer())
	report, err := rt.Run([]string{"R1", "R2", "R3"}, workload.RegisterMoodleFixed, retro.Options{
		Invariant: noForumDuplicates,
	})
	if err != nil {
		return nil, err
	}
	if len(report.Schedules) < 2 {
		return nil, fmt.Errorf("E7: only %d schedules explored", len(report.Schedules))
	}
	if !report.AllInvariantsHold() {
		return nil, fmt.Errorf("E7: the fix failed an interleaving")
	}
	return report, nil
}

func noForumDuplicates(dev *db.DB) error {
	rows, err := dev.Query(`SELECT userId, forum, COUNT(*) AS c FROM forum_sub
		GROUP BY userId, forum HAVING COUNT(*) > 1`)
	if err != nil {
		return err
	}
	if len(rows.Rows) > 0 {
		return fmt.Errorf("duplicate subscription (%s, %s)", rows.Rows[0][0].AsText(), rows.Rows[0][1].AsText())
	}
	return nil
}

// SecurityScenario is the §4.2 production run used by E8/E9.
type SecurityScenario struct {
	Prod, Prov *db.DB
	App        *runtime.App
	Tracer     *trace.Tracer
}

// Close releases resources.
func (s *SecurityScenario) Close() {
	s.Tracer.Close()
	s.Prod.Close()
	s.Prov.Close()
}

// NewSecurityScenario seeds the profile service and serves mixed
// legitimate/malicious traffic.
func NewSecurityScenario() (*SecurityScenario, error) {
	prod := db.MustOpenMemory()
	prov := db.MustOpenMemory()
	if err := workload.SetupProfiles(prod); err != nil {
		return nil, err
	}
	app := runtime.New(prod)
	workload.RegisterProfiles(app)
	tr, err := trace.Attach(app, prov, trace.Config{Tables: workload.ProfileTables})
	if err != nil {
		return nil, err
	}
	traffic := []struct {
		id, handler string
		args        runtime.Args
	}{
		{"R1", "updateProfile", runtime.Args{"userName": "alice", "caller": "alice", "bio": "hello"}},
		{"R2", "viewProfile", runtime.Args{"userName": "alice"}},
		{"R3", "updateProfile", runtime.Args{"userName": "alice", "caller": "mallory", "bio": "pwned"}},
		{"R4", "sendMessage", runtime.Args{"recipient": "friend@x", "body": "hi"}},
		{"R5", "exfiltrate", runtime.Args{"docId": 1, "dropbox": "evil@drop"}},
	}
	for _, r := range traffic {
		if _, err := app.InvokeWithReqID(r.id, r.handler, r.args); err != nil {
			return nil, fmt.Errorf("security traffic %s: %w", r.id, err)
		}
	}
	if err := tr.Flush(); err != nil {
		return nil, err
	}
	return &SecurityScenario{Prod: prod, Prov: prov, App: app, Tracer: tr}, nil
}

// RunE8AccessControl runs the §4.2 User Profiles detection and validates
// that exactly the illegal update (R3) is flagged.
func RunE8AccessControl(sc *SecurityScenario) ([]detect.Violation, error) {
	violations, err := detect.UserProfiles(sc.Tracer.Writer(), "profiles", "UserName", "UpdatedBy")
	if err != nil {
		return nil, err
	}
	if len(violations) != 1 || violations[0].ReqID != "R3" {
		return nil, fmt.Errorf("E8: violations = %+v", violations)
	}
	return violations, nil
}

// RunE9Exfiltration runs the workflow exfiltration tracing and validates
// that exactly R5's workflow is found with its full path.
func RunE9Exfiltration(sc *SecurityScenario) ([]detect.ExfilFinding, error) {
	findings, err := detect.Exfiltration(sc.Tracer.Writer(), "documents", "outbox")
	if err != nil {
		return nil, err
	}
	if len(findings) != 1 || findings[0].ReqID != "R5" {
		return nil, fmt.Errorf("E9: findings = %+v", findings)
	}
	path := strings.Join(findings[0].WorkflowPath, "->")
	if !strings.Contains(path, "readDocument") || !strings.Contains(path, "sendMessage") {
		return nil, fmt.Errorf("E9: workflow path %q incomplete", path)
	}
	return findings, nil
}

// CaseStudyResult summarises one §4.1 case-study bug's TROD treatment.
type CaseStudyResult struct {
	Bug          string
	Reproduced   bool
	Located      bool // provenance query finds the culprit requests
	Replayed     bool // faithful replay of a culprit request
	FixValidated bool // retroactive run of the fix passes
	Notes        string
}

// RunE10CaseStudies runs the MW-44325, MW-39225 and MDL-60669 case studies
// end to end.
func RunE10CaseStudies() ([]CaseStudyResult, error) {
	var out []CaseStudyResult
	r1, err := caseMW44325()
	if err != nil {
		return nil, err
	}
	out = append(out, *r1)
	r2, err := caseMW39225()
	if err != nil {
		return nil, err
	}
	out = append(out, *r2)
	r3, err := caseMDL60669()
	if err != nil {
		return nil, err
	}
	out = append(out, *r3)
	r4, err := caseOverbooking()
	if err != nil {
		return nil, err
	}
	out = append(out, *r4)
	return out, nil
}

// caseOverbooking is the travel-reservation overbooking TOCTOU — the
// paper's introductory application domain, exercised end to end.
func caseOverbooking() (*CaseStudyResult, error) {
	res := &CaseStudyResult{Bug: "Travel overbooking (TOCTOU on seat counter)"}
	prod := db.MustOpenMemory()
	prov := db.MustOpenMemory()
	if err := workload.SetupTravel(prod); err != nil {
		return nil, err
	}
	app := runtime.New(prod)
	workload.RegisterTravel(app)
	tr, err := trace.Attach(app, prov, trace.Config{Tables: workload.TravelTables})
	if err != nil {
		return nil, err
	}
	defer func() { tr.Close(); prod.Close(); prov.Close() }()

	if _, err := app.InvokeWithReqID("R1", "bookTrip", runtime.Args{"flightId": "F100", "customer": "early"}); err != nil {
		return nil, err
	}
	if err := workload.RaceHandlers(app, "bookTrip", "recordBooking", "R2", "R3",
		runtime.Args{"flightId": "F100", "customer": "alice"},
		runtime.Args{"flightId": "F100", "customer": "bob"}); err != nil {
		return nil, err
	}
	_, auditErr := app.InvokeWithReqID("R4", "auditFlight", runtime.Args{"flightId": "F100"})
	res.Reproduced = auditErr != nil
	if err := tr.Flush(); err != nil {
		return nil, err
	}

	rows, err := prov.Query(`SELECT E.ReqId FROM Executions as E, BookingEvents as B
		ON E.TxnId = B.TxnId WHERE B.Type = 'Insert' AND B.flightId = 'F100'
		ORDER BY E.Timestamp`)
	if err != nil {
		return nil, err
	}
	res.Located = len(rows.Rows) == 3 // three bookings on a two-seat flight
	if res.Located {
		late := rows.Rows[2][0].AsText()
		rp := replay.New(prod, tr.Writer())
		report, err := rp.Replay(late, workload.RegisterTravel, replay.Options{})
		if err != nil {
			return nil, err
		}
		res.Replayed = !report.Diverged && len(report.ForeignWriters) >= 1
	}
	rt := retro.New(prod, tr.Writer())
	report, err := rt.Run([]string{"R2", "R3"}, workload.RegisterTravelFixed, retro.Options{
		Invariant: func(dev *db.DB) error {
			r, err := dev.Query(`SELECT flightId FROM flights WHERE booked > seats`)
			if err != nil {
				return err
			}
			if len(r.Rows) > 0 {
				return fmt.Errorf("oversold")
			}
			return nil
		},
	})
	if err != nil {
		return nil, err
	}
	res.FixValidated = report.AllInvariantsHold()
	return res, nil
}

func newWikiScenario() (*db.DB, *db.DB, *runtime.App, *trace.Tracer, error) {
	prod := db.MustOpenMemory()
	prov := db.MustOpenMemory()
	if err := workload.SetupMediaWiki(prod); err != nil {
		return nil, nil, nil, nil, err
	}
	app := runtime.New(prod)
	workload.RegisterMediaWiki(app)
	tr, err := trace.Attach(app, prov, trace.Config{Tables: workload.MediaWikiTables})
	if err != nil {
		return nil, nil, nil, nil, err
	}
	return prod, prov, app, tr, nil
}

func caseMW44325() (*CaseStudyResult, error) {
	res := &CaseStudyResult{Bug: "MW-44325 (duplicate site links)"}
	prod, prov, app, tr, err := newWikiScenario()
	if err != nil {
		return nil, err
	}
	defer func() { tr.Close(); prod.Close(); prov.Close() }()

	if err := workload.RaceHandlers(app, "addSiteLink", "insertSiteLink", "R1", "R2",
		runtime.Args{"pageId": 1, "url": "https://dup"},
		runtime.Args{"pageId": 1, "url": "https://dup"}); err != nil {
		return nil, err
	}
	if _, err := app.InvokeWithReqID("R3", "checkSiteLinks", nil); err != nil {
		res.Reproduced = true
	}
	if err := tr.Flush(); err != nil {
		return nil, err
	}
	rows, err := prov.Query(`SELECT E.ReqId FROM Executions as E, SiteLinkEvents as L
		ON E.TxnId = L.TxnId WHERE L.Type = 'Insert' AND L.url = 'https://dup'
		ORDER BY E.Timestamp`)
	if err != nil {
		return nil, err
	}
	res.Located = len(rows.Rows) == 2
	if res.Located {
		late := rows.Rows[1][0].AsText()
		rp := replay.New(prod, tr.Writer())
		report, err := rp.Replay(late, workload.RegisterMediaWiki, replay.Options{})
		if err != nil {
			return nil, err
		}
		res.Replayed = !report.Diverged && len(report.ForeignWriters) == 1
	}
	rt := retro.New(prod, tr.Writer())
	report, err := rt.Run([]string{"R1", "R2", "R3"}, workload.RegisterMediaWikiFixed, retro.Options{
		Invariant: func(dev *db.DB) error {
			r, err := dev.Query(`SELECT url FROM sitelinks GROUP BY url HAVING COUNT(*) > 1`)
			if err != nil {
				return err
			}
			if len(r.Rows) > 0 {
				return fmt.Errorf("duplicate link")
			}
			return nil
		},
	})
	if err != nil {
		return nil, err
	}
	res.FixValidated = report.AllInvariantsHold()
	return res, nil
}

func caseMW39225() (*CaseStudyResult, error) {
	res := &CaseStudyResult{Bug: "MW-39225 (wrong article sizes)"}
	prod, prov, app, tr, err := newWikiScenario()
	if err != nil {
		return nil, err
	}
	defer func() { tr.Close(); prod.Close(); prov.Close() }()

	if err := workload.RaceHandlers(app, "editPage", "updatePageSize", "R1", "R2",
		runtime.Args{"pageId": 1, "content": "tiny"},
		runtime.Args{"pageId": 1, "content": "a considerably longer article body"}); err != nil {
		return nil, err
	}
	_, infoErr := app.InvokeWithReqID("R3", "pageInfo", runtime.Args{"pageId": 1})
	if err := tr.Flush(); err != nil {
		return nil, err
	}
	// The race is "rare and random": the bug manifests when the cached size
	// disagrees with the latest revision. Either way, provenance locates
	// both size writers.
	res.Reproduced = infoErr != nil
	rows, err := prov.Query(`SELECT E.ReqId FROM Executions as E, PageEvents as P
		ON E.TxnId = P.TxnId WHERE P.Type = 'Update' ORDER BY E.Timestamp`)
	if err != nil {
		return nil, err
	}
	res.Located = len(rows.Rows) == 2
	if res.Located {
		late := rows.Rows[1][0].AsText()
		rp := replay.New(prod, tr.Writer())
		report, err := rp.Replay(late, workload.RegisterMediaWiki, replay.Options{})
		if err != nil {
			return nil, err
		}
		res.Replayed = !report.Diverged
	}
	rt := retro.New(prod, tr.Writer())
	report, err := rt.Run([]string{"R1", "R2", "R3"}, workload.RegisterMediaWikiFixed, retro.Options{})
	if err != nil {
		return nil, err
	}
	res.FixValidated = report.AllInvariantsHold()
	if !res.Reproduced {
		res.Notes = "size mismatch did not manifest this run (MW-39225 is 'rare and random'); provenance still locates both writers"
	}
	return res, nil
}

func caseMDL60669() (*CaseStudyResult, error) {
	res := &CaseStudyResult{Bug: "MDL-60669 (restore fails on stale duplicates)"}
	prod := db.MustOpenMemory()
	prov := db.MustOpenMemory()
	if err := workload.SetupMoodle(prod); err != nil {
		return nil, err
	}
	app := runtime.New(prod)
	workload.RegisterMoodle(app)
	tr, err := trace.Attach(app, prov, trace.Config{Tables: workload.MoodleTables})
	if err != nil {
		return nil, err
	}
	defer func() { tr.Close(); prod.Close(); prov.Close() }()

	if err := workload.RaceSubscribe(app, "R1", "R2", "U1", "F2"); err != nil {
		return nil, err
	}
	if _, err := app.InvokeWithReqID("R3", "deleteCourse", runtime.Args{"course": "C1"}); err != nil {
		return nil, err
	}
	_, restoreErr := app.InvokeWithReqID("R4", "restoreCourse", runtime.Args{"course": "C1"})
	res.Reproduced = restoreErr != nil
	if err := tr.Flush(); err != nil {
		return nil, err
	}

	// Locate: which earlier requests put the duplicates in the course?
	rows, err := prov.Query(`SELECT E.ReqId FROM Executions as E, ForumEvents as F
		ON E.TxnId = F.TxnId WHERE F.Type = 'Insert' AND F.course = 'C1'
		ORDER BY E.Timestamp`)
	if err != nil {
		return nil, err
	}
	res.Located = len(rows.Rows) == 2

	// Replay the failing restore faithfully.
	rp := replay.New(prod, tr.Writer())
	report, err := rp.Replay("R4", workload.RegisterMoodle, replay.Options{})
	if err != nil {
		return nil, err
	}
	res.Replayed = !report.Diverged && report.Err != nil

	// Retroactive validation of the MDL-59854 patch over ALL four requests:
	// with the patch applied from the start, no duplicates ever exist, so
	// the restore succeeds — validating the fix before production (§4.1).
	rt := retro.New(prod, tr.Writer())
	retroReport, err := rt.Run([]string{"R1", "R2", "R3", "R4"}, workload.RegisterMoodleFixed, retro.Options{})
	if err != nil {
		return nil, err
	}
	res.FixValidated = retroReport.AllInvariantsHold()
	return res, nil
}
