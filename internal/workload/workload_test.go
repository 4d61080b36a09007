package workload

import (
	goruntime "runtime"
	"strings"
	"testing"

	"repro/internal/db"
	"repro/internal/runtime"
)

func newMoodle(t *testing.T, fixed bool) *runtime.App {
	t.Helper()
	d := db.MustOpenMemory()
	t.Cleanup(func() { d.Close() })
	if err := SetupMoodle(d); err != nil {
		t.Fatal(err)
	}
	app := runtime.New(d)
	if fixed {
		RegisterMoodleFixed(app)
	} else {
		RegisterMoodle(app)
	}
	return app
}

func TestMoodleHappyPath(t *testing.T) {
	app := newMoodle(t, false)
	if _, err := app.Invoke("subscribeUser", runtime.Args{"userId": "U1", "forum": "F2"}); err != nil {
		t.Fatal(err)
	}
	// Second subscribe is a no-op.
	res, err := app.Invoke("subscribeUser", runtime.Args{"userId": "U1", "forum": "F2"})
	if err != nil || res != true {
		t.Fatalf("resubscribe = %v, %v", res, err)
	}
	subs, err := app.Invoke("fetchSubscribers", runtime.Args{"forum": "F2"})
	if err != nil {
		t.Fatal(err)
	}
	if users := subs.([]string); len(users) != 1 || users[0] != "U1" {
		t.Errorf("subscribers = %v", users)
	}
	// Unsubscribe removes it.
	if res, err := app.Invoke("unsubscribe", runtime.Args{"userId": "U1", "forum": "F2"}); err != nil || res != true {
		t.Errorf("unsubscribe = %v, %v", res, err)
	}
	if res, _ := app.Invoke("unsubscribe", runtime.Args{"userId": "U1", "forum": "F2"}); res != false {
		t.Error("second unsubscribe should report false")
	}
}

func TestMoodleRaceReproducesMDL59854(t *testing.T) {
	app := newMoodle(t, false)
	if err := Race(app, "subscribeUser", "DB.insert", "R1", "R2", u1f2, u1f2); err != nil {
		t.Fatal(err)
	}
	// The duplicate exists and fetchSubscribers raises the Figure 1 error.
	_, err := app.Invoke("fetchSubscribers", runtime.Args{"forum": "F2"})
	if err == nil || !strings.Contains(err.Error(), "duplicated") {
		t.Fatalf("expected duplicate error, got %v", err)
	}
	rows, _ := app.DB().Query(`SELECT COUNT(*) FROM forum_sub WHERE userId = 'U1' AND forum = 'F2'`)
	if rows.Rows[0][0].AsInt() != 2 {
		t.Errorf("duplicate count = %v", rows.Rows[0][0])
	}
}

func TestMoodleFixedSurvivesRace(t *testing.T) {
	raceAtomic(t, func() *runtime.App { return newMoodle(t, true) }, "subscribeAtomic",
		Call{"R1", "subscribeUser", u1f2}, Call{"R2", "subscribeUser", u1f2},
		func(app *runtime.App) {
			res, err := app.Invoke("fetchSubscribers", runtime.Args{"forum": "F2"})
			if err != nil {
				t.Fatalf("fixed variant still produced duplicates: %v", err)
			}
			if users := res.([]string); len(users) != 1 {
				t.Errorf("subscribers = %v", users)
			}
		})
}

// A racer that finishes without reaching the gate (here: already
// subscribed, so no insert) must not leave Race waiting for it.
func TestRaceRequestThatSkipsTheGate(t *testing.T) {
	app := newMoodle(t, false)
	if _, err := app.Invoke("subscribeUser", u1f2); err != nil {
		t.Fatal(err)
	}
	if err := Race(app, "subscribeUser", "DB.insert", "R5", "R6", u1f2, u1f2); err != nil {
		t.Fatal(err)
	}
	if _, err := app.Invoke("fetchSubscribers", runtime.Args{"forum": "F2"}); err != nil {
		t.Errorf("no racer should have inserted: %v", err)
	}
}

func TestMoodleMDL60669RestoreBug(t *testing.T) {
	app := newMoodle(t, false)
	// Create a duplicate inside course C1 (the old bug's leftovers).
	if err := Race(app, "subscribeUser", "DB.insert", "R1", "R2", u1f2, u1f2); err != nil {
		t.Fatal(err)
	}
	if _, err := app.Invoke("deleteCourse", runtime.Args{"course": "C1"}); err != nil {
		t.Fatal(err)
	}
	// Restoring the course trips over the stale duplicates — MDL-60669.
	_, err := app.Invoke("restoreCourse", runtime.Args{"course": "C1"})
	if err == nil || !strings.Contains(err.Error(), "duplicate subscription") {
		t.Fatalf("expected restore failure, got %v", err)
	}
}

func newWiki(t *testing.T, fixed bool) *runtime.App {
	t.Helper()
	d := db.MustOpenMemory()
	t.Cleanup(func() { d.Close() })
	if err := SetupMediaWiki(d); err != nil {
		t.Fatal(err)
	}
	app := runtime.New(d)
	if fixed {
		RegisterMediaWikiFixed(app)
	} else {
		RegisterMediaWiki(app)
	}
	return app
}

func TestMediaWikiHappyPath(t *testing.T) {
	app := newWiki(t, false)
	if _, err := app.Invoke("editPage", runtime.Args{"pageId": 1, "content": "hello world"}); err != nil {
		t.Fatal(err)
	}
	size, err := app.Invoke("pageInfo", runtime.Args{"pageId": 1})
	if err != nil || size.(int64) != 11 {
		t.Fatalf("pageInfo = %v, %v", size, err)
	}
	if res, err := app.Invoke("addSiteLink", runtime.Args{"pageId": 1, "url": "https://x"}); err != nil || res != true {
		t.Fatalf("addSiteLink = %v, %v", res, err)
	}
	if res, _ := app.Invoke("addSiteLink", runtime.Args{"pageId": 1, "url": "https://x"}); res != false {
		t.Error("duplicate link should be refused sequentially")
	}
	if _, err := app.Invoke("checkSiteLinks", nil); err != nil {
		t.Errorf("no duplicates expected: %v", err)
	}
}

func TestMediaWikiRaceMW39225WrongSizes(t *testing.T) {
	app := newWiki(t, false)
	// Two concurrent edits of page 1: both insert revisions, then R2 updates
	// the cached size before R1 does, so the cache holds R1's size while the
	// latest revision is R2's.
	err := Race(app, "editPage", "updatePageSize", "R1", "R2",
		runtime.Args{"pageId": 1, "content": "short"},
		runtime.Args{"pageId": 1, "content": "a much longer article body"})
	if err != nil {
		t.Fatal(err)
	}
	rows, _ := app.DB().Query(`SELECT COUNT(*) FROM revisions WHERE pageId = 1`)
	if rows.Rows[0][0].AsInt() != 3 { // seed + 2 edits
		t.Errorf("revisions = %v", rows.Rows[0][0])
	}
	if _, err := app.Invoke("pageInfo", runtime.Args{"pageId": 1}); err == nil || !strings.Contains(err.Error(), "does not match") {
		t.Errorf("pageInfo after the race = %v, want a size mismatch", err)
	}
}

func TestMediaWikiRaceMW44325DuplicateLinks(t *testing.T) {
	app := newWiki(t, false)
	err := Race(app, "addSiteLink", "insertSiteLink", "R1", "R2",
		runtime.Args{"pageId": 1, "url": "https://dup"},
		runtime.Args{"pageId": 1, "url": "https://dup"})
	if err != nil {
		t.Fatal(err)
	}
	_, err = app.Invoke("checkSiteLinks", nil)
	if err == nil || !strings.Contains(err.Error(), "duplicated site link") {
		t.Fatalf("expected duplicate link error, got %v", err)
	}
}

func TestMediaWikiFixedSurvivesRaces(t *testing.T) {
	fixed := func() *runtime.App { return newWiki(t, true) }
	link := runtime.Args{"pageId": 1, "url": "https://dup"}
	raceAtomic(t, fixed, "siteLinkAtomic", Call{"R1", "addSiteLink", link}, Call{"R2", "addSiteLink", link},
		func(app *runtime.App) {
			if _, err := app.Invoke("checkSiteLinks", nil); err != nil {
				t.Errorf("fixed addSiteLink still duplicated: %v", err)
			}
		})
	raceAtomic(t, fixed, "editAtomic",
		Call{"R3", "editPage", runtime.Args{"pageId": 1, "content": "short"}},
		Call{"R4", "editPage", runtime.Args{"pageId": 1, "content": "a much longer article body"}},
		func(app *runtime.App) {
			if _, err := app.Invoke("pageInfo", runtime.Args{"pageId": 1}); err != nil {
				t.Errorf("fixed editPage still inconsistent: %v", err)
			}
		})
}

func TestProfilesAndExfiltration(t *testing.T) {
	d := db.MustOpenMemory()
	defer d.Close()
	if err := SetupProfiles(d); err != nil {
		t.Fatal(err)
	}
	app := runtime.New(d)
	RegisterProfiles(app)

	// Legitimate update.
	if _, err := app.Invoke("updateProfile", runtime.Args{"userName": "alice", "caller": "alice", "bio": "new"}); err != nil {
		t.Fatal(err)
	}
	// Illegal update: mallory edits alice's profile (no ownership check).
	if _, err := app.Invoke("updateProfile", runtime.Args{"userName": "alice", "caller": "mallory", "bio": "pwned"}); err != nil {
		t.Fatal(err)
	}
	rows, _ := d.Query(`SELECT updatedBy FROM profiles WHERE userName = 'alice'`)
	if rows.Rows[0][0].AsText() != "mallory" {
		t.Errorf("updatedBy = %v", rows.Rows[0][0])
	}

	// Exfiltration workflow moves a secret into the outbox.
	res, err := app.Invoke("exfiltrate", runtime.Args{"docId": 1, "dropbox": "evil@x"})
	if err != nil || res != true {
		t.Fatalf("exfiltrate = %v, %v", res, err)
	}
	rows, _ = d.Query(`SELECT body FROM outbox WHERE recipient = 'evil@x'`)
	if len(rows.Rows) != 1 || rows.Rows[0][0].AsText() != "alice-api-key" {
		t.Errorf("outbox = %v", rows.Rows)
	}
	if _, err := app.Invoke("viewProfile", runtime.Args{"userName": "ghost"}); err == nil {
		t.Error("missing profile should error")
	}
	if _, err := app.Invoke("readDocument", runtime.Args{"docId": 99}); err == nil {
		t.Error("missing document should error")
	}
}

func TestMicroserviceWorkload(t *testing.T) {
	d := db.MustOpenMemory()
	defer d.Close()
	if err := SetupMicroservice(d, 20, 42); err != nil {
		t.Fatal(err)
	}
	app := runtime.New(d)
	RegisterMicroservice(app)

	handlers, args := RequestMix(200, 20, 7)
	if len(handlers) != 200 || len(args) != 200 {
		t.Fatal("request mix sizing")
	}
	for i := range handlers {
		if _, err := app.Invoke(handlers[i], args[i]); err != nil {
			t.Fatalf("request %d (%s): %v", i, handlers[i], err)
		}
	}
	// Post counters must equal actual posts per user.
	rows, err := d.Query(`SELECT u.userId, u.posts, COUNT(p.postId) AS actual
		FROM users u LEFT JOIN posts p ON p.userId = u.userId
		GROUP BY u.userId, u.posts ORDER BY u.userId`)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows.Rows {
		if r[1].AsInt() != r[2].AsInt() {
			t.Errorf("user %v: counter %v != actual %v", r[0], r[1], r[2])
		}
	}
	// Deterministic mix: same seed, same stream.
	h2, a2 := RequestMix(200, 20, 7)
	for i := range handlers {
		if handlers[i] != h2[i] || args[i].Int("userId") != a2[i].Int("userId") {
			t.Fatal("RequestMix not deterministic")
		}
	}
}

// raceAtomic races requests a and b of a fixed handler on fresh apps from
// setup: both are held before their gate transaction and released together,
// and check asserts the invariant after each round. It repeats until a round
// ran the two atomic blocks at once and the database rejected one with a
// serialization conflict, so the fix is seen surviving a conflict and retry
// and not only two calls in a row.
func raceAtomic(t *testing.T, setup func() *runtime.App, gate string, a, b Call, check func(*runtime.App)) {
	t.Helper()
	rounds := 500
	if goruntime.GOMAXPROCS(0) == 1 {
		rounds = 1 // with one P the two blocks run one after the other
	}
	for i := 0; i < rounds; i++ {
		app := setup()
		if err := overlapAt(app, gate, []Call{a, b}); err != nil {
			t.Fatal(err)
		}
		check(app)
		if _, conflicts := app.DB().CommitStats(); conflicts > 0 || t.Failed() {
			return
		}
	}
	if rounds > 1 {
		t.Errorf("%s: no round of %d ran the two atomic blocks at once", gate, rounds)
	}
}

// u1f2 is the racing requests' arguments in the MDL-59854 scenario.
var u1f2 = runtime.Args{"userId": "U1", "forum": "F2"}
