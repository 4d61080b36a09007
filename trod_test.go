package trod_test

import (
	"path/filepath"
	"strings"
	"testing"

	trod "repro"
	"repro/internal/workload"
)

// newForumSystem builds a complete TROD deployment around the Moodle-like
// forum service through the public API only.
func newForumSystem(t *testing.T) *trod.System {
	t.Helper()
	sys, err := trod.NewSystem(trod.Config{
		Schema:      workload.MoodleSchema + `INSERT INTO courses VALUES ('C1', FALSE), ('C2', FALSE);`,
		TraceTables: workload.MoodleTables,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	workload.RegisterMoodle(sys.App)
	return sys
}

func TestEndToEndDebuggingStory(t *testing.T) {
	sys := newForumSystem(t)

	// 1. Production: the MDL-59854 race happens; a later fetch fails.
	sub := trod.Args{"userId": "U1", "forum": "F2"}
	if err := workload.Race(sys.App, "subscribeUser", "DB.insert", "R1", "R2", sub, sub); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.App.InvokeWithReqID("R3", "fetchSubscribers", trod.Args{"forum": "F2"}); err == nil {
		t.Fatal("R3 should fail")
	}
	if err := sys.Flush(); err != nil {
		t.Fatal(err)
	}

	// 2. Declarative debugging: the §3.3 query pinpoints both inserts.
	res, err := sys.Prov.Query(`SELECT Timestamp, ReqId, HandlerName
		FROM Executions as E, ForumEvents as F ON E.TxnId = F.TxnId
		WHERE F.UserId = 'U1' AND F.Forum = 'F2' AND F.Type = 'Insert'
		ORDER BY Timestamp ASC`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("debug query rows = %d", len(res.Rows))
	}
	lateReq := res.Rows[1][1].AsText()

	// 3. Replay the late request: faithful, with the other request's write
	// injected between its two transactions.
	report, err := sys.Replayer().Replay(lateReq, workload.RegisterMoodle, trod.ReplayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if report.Diverged {
		t.Fatalf("replay diverged: %v", report.Diffs)
	}
	if len(report.ForeignWriters) != 1 {
		t.Fatalf("foreign writers = %v", report.ForeignWriters)
	}

	// 4. Retroactive programming: the fix passes every interleaving.
	retroReport, err := sys.Retro().Run([]string{"R1", "R2", "R3"}, workload.RegisterMoodleFixed,
		trod.RetroOptions{Invariant: workload.NoDuplicateSubscription})
	if err != nil {
		t.Fatal(err)
	}
	if !retroReport.AllInvariantsHold() {
		t.Fatal("the fix should pass all interleavings")
	}
}

func TestSystemWithDiskDatabase(t *testing.T) {
	path := filepath.Join(t.TempDir(), "prod.wal")
	sys, err := trod.NewSystem(trod.Config{
		Schema:      `CREATE TABLE kv (k TEXT PRIMARY KEY, v INTEGER)`,
		DiskPath:    path,
		TraceTables: trod.TableMap{"kv": "KvEvents"},
	})
	if err != nil {
		t.Fatal(err)
	}
	sys.App.Register("put", func(c *trod.Ctx, args trod.Args) (any, error) {
		_, err := c.Exec("put", `INSERT INTO kv VALUES (?, ?)`, args.String("k"), args.Int("v"))
		return nil, err
	})
	if _, err := sys.App.Invoke("put", trod.Args{"k": "x", "v": 7}); err != nil {
		t.Fatal(err)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	// The production data survives restart.
	reopened, err := trod.OpenDiskDB(path)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	rows, err := reopened.Query(`SELECT v FROM kv WHERE k = 'x'`)
	if err != nil || len(rows.Rows) != 1 || rows.Rows[0][0].AsInt() != 7 {
		t.Errorf("recovered = %v, %v", rows, err)
	}
}

func TestSecurityDetectorsThroughPublicAPI(t *testing.T) {
	sys, err := trod.NewSystem(trod.Config{
		Schema:      workload.ProfileSchema + `INSERT INTO profiles VALUES ('alice', 'hi', 'alice'); INSERT INTO documents VALUES (1, 'alice', 'key');`,
		TraceTables: workload.ProfileTables,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	workload.RegisterProfiles(sys.App)

	if _, err := sys.App.InvokeWithReqID("R1", "updateProfile", trod.Args{"userName": "alice", "caller": "mallory", "bio": "x"}); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.App.InvokeWithReqID("R2", "exfiltrate", trod.Args{"docId": 1, "dropbox": "evil@x"}); err != nil {
		t.Fatal(err)
	}
	if err := sys.Flush(); err != nil {
		t.Fatal(err)
	}

	violations, err := trod.DetectUserProfiles(sys.Tracer, "profiles", "UserName", "UpdatedBy")
	if err != nil || len(violations) != 1 || violations[0].ReqID != "R1" {
		t.Errorf("user profiles = %+v, %v", violations, err)
	}
	auth, err := trod.DetectAuthentication(sys.Tracer, "documents", []string{"readDocument"})
	if err != nil || len(auth) != 0 {
		t.Errorf("auth = %+v, %v", auth, err)
	}
	exfil, err := trod.DetectExfiltration(sys.Tracer, "documents", "outbox")
	if err != nil || len(exfil) != 1 || exfil[0].ReqID != "R2" {
		t.Errorf("exfil = %+v, %v", exfil, err)
	}
}

func TestConfigErrors(t *testing.T) {
	if _, err := trod.NewSystem(trod.Config{Schema: "NOT SQL"}); err == nil {
		t.Error("bad schema should fail")
	}
	if _, err := trod.NewSystem(trod.Config{TraceTables: trod.TableMap{"missing": "X"}}); err == nil {
		t.Error("tracing a missing table should fail")
	}
}

func TestGDPRForgetThroughPublicAPI(t *testing.T) {
	sys := newForumSystem(t)
	if _, err := sys.App.InvokeWithReqID("R1", "subscribeUser", trod.Args{"userId": "U9", "forum": "F1"}); err != nil {
		t.Fatal(err)
	}
	if err := sys.Flush(); err != nil {
		t.Fatal(err)
	}
	n, err := sys.Tracer.Writer().Forget("userId", "U9")
	if err != nil || n == 0 {
		t.Fatalf("Forget = %d, %v", n, err)
	}
	rows, _ := sys.Prov.Query(`SELECT COUNT(*) FROM ForumEvents WHERE UserId = 'U9'`)
	if rows.Rows[0][0].AsInt() != 0 {
		t.Error("user data still present after Forget")
	}
}

func TestTracedTableNamesAreCaseInsensitive(t *testing.T) {
	sys, err := trod.NewSystem(trod.Config{
		Schema:      `CREATE TABLE Mixed (id INTEGER PRIMARY KEY, v TEXT)`,
		TraceTables: trod.TableMap{"MIXED": "MixedEvents"},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	sys.App.Register("w", func(c *trod.Ctx, args trod.Args) (any, error) {
		_, err := c.Exec("w", `INSERT INTO mixed VALUES (1, 'x')`)
		return nil, err
	})
	if _, err := sys.App.Invoke("w", nil); err != nil {
		t.Fatal(err)
	}
	if err := sys.Flush(); err != nil {
		t.Fatal(err)
	}
	rows, err := sys.Prov.Query(`SELECT Type FROM MixedEvents`)
	if err != nil || len(rows.Rows) == 0 {
		t.Errorf("mixed-case trace rows = %v, %v", rows, err)
	}
	if !strings.EqualFold(rows.Rows[0][0].AsText(), "insert") {
		t.Errorf("event type = %v", rows.Rows[0][0])
	}
}
