package span

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestStageNamesRoundTrip(t *testing.T) {
	names := Stages()
	if len(names) != int(numStages) {
		t.Fatalf("Stages() returned %d names, want %d", len(names), numStages)
	}
	seen := map[string]bool{}
	for i, name := range names {
		if name == "" {
			t.Fatalf("stage %d has no name", i)
		}
		if seen[name] {
			t.Fatalf("duplicate stage name %q", name)
		}
		seen[name] = true
		st, ok := ParseStage(name)
		if !ok || st != Stage(i) {
			t.Fatalf("ParseStage(%q) = %v, %v; want %v, true", name, st, ok, Stage(i))
		}
		if Stage(i).String() != name {
			t.Fatalf("Stage(%d).String() = %q, want %q", i, Stage(i).String(), name)
		}
	}
	if _, ok := ParseStage("no_such_stage"); ok {
		t.Fatal("ParseStage accepted an unknown name")
	}
	if got := Stage(200).String(); got != "unknown" {
		t.Fatalf("out-of-range stage renders %q, want unknown", got)
	}
}

func TestBufRecordAndOverflow(t *testing.T) {
	b := NewBuf(7, 3)
	if b.Len() != 1 {
		t.Fatalf("fresh buf Len = %d, want 1 (root)", b.Len())
	}
	start := time.Unix(0, 1_000_000)
	for i := 0; i < BufCap+10; i++ {
		b.Record(StageExecute, RootID, start, time.Millisecond)
	}
	if b.Len() != BufCap {
		t.Fatalf("Len = %d after overflow, want %d", b.Len(), BufCap)
	}
	if b.Dropped() != 11 {
		t.Fatalf("Dropped = %d, want 11 (BufCap+10 records into BufCap-1 free slots)", b.Dropped())
	}
	spans := b.Spans()
	if len(spans) != BufCap {
		t.Fatalf("Spans len = %d, want %d", len(spans), BufCap)
	}
	if spans[0].ID != RootID || spans[0].Stage != StageRequest || spans[0].Parent != 3 {
		t.Fatalf("root span malformed: %+v", spans[0])
	}
	ids := map[uint32]bool{}
	for _, s := range spans {
		if ids[s.ID] {
			t.Fatalf("duplicate span ID %d", s.ID)
		}
		ids[s.ID] = true
	}
}

func TestBufReserveComplete(t *testing.T) {
	b := NewBuf(1, 0)
	id := b.Reserve(StageParsePlan, RootID)
	if id == 0 {
		t.Fatal("Reserve returned 0")
	}
	child := b.Record(StagePlanCompile, id, time.Unix(0, 500), 100*time.Nanosecond)
	if child == 0 {
		t.Fatal("Record under reserved parent returned 0")
	}
	b.Complete(id, time.Unix(0, 400), 300*time.Nanosecond)
	var got Span
	for _, s := range b.Spans() {
		if s.ID == id {
			got = s
		}
	}
	if got.ID == 0 || got.Start != 400 || got.Dur != 300 {
		t.Fatalf("reserved span not completed: %+v", got)
	}
	b.Finish(time.Unix(0, 100), time.Microsecond)
	root := b.Spans()[0]
	if root.Start != 100 || root.Dur != 1000 {
		t.Fatalf("Finish did not stamp root: %+v", root)
	}
	b.NoteSeq(42)
	if b.CommitSeq() != 42 || b.Spans()[0].Seq != 42 {
		t.Fatalf("NoteSeq not reflected: seq=%d root=%+v", b.CommitSeq(), b.Spans()[0])
	}
}

func TestBufNilSafe(t *testing.T) {
	var b *Buf
	if id := b.Record(StageExecute, RootID, time.Now(), time.Millisecond); id != 0 {
		t.Fatalf("nil Record returned %d", id)
	}
	if id := b.Reserve(StageParsePlan, RootID); id != 0 {
		t.Fatalf("nil Reserve returned %d", id)
	}
	b.Complete(1, time.Now(), 0)
	b.Finish(time.Now(), 0)
	b.NoteSeq(9)
	if b.CommitSeq() != 0 || b.Len() != 0 || b.Dropped() != 0 || b.Spans() != nil {
		t.Fatal("nil Buf accessors not zero")
	}
}

// TestBufConcurrentRecord exercises the lock-free append under the race
// detector: concurrent recorders must neither collide on slots nor tear.
func TestBufConcurrentRecord(t *testing.T) {
	b := NewBuf(1, 0)
	const workers = 8
	const perWorker = 16 // 8*16 = 128 > BufCap: overflow path raced too
	var wg sync.WaitGroup
	start := time.Unix(0, 0)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				b.Record(Stage(w%int(numStages)), RootID, start, time.Duration(w*100+i))
			}
		}(w)
	}
	wg.Wait()
	if b.Len() != BufCap {
		t.Fatalf("Len = %d, want %d", b.Len(), BufCap)
	}
	if got, want := int(b.Dropped()), workers*perWorker-(BufCap-1); got != want {
		t.Fatalf("Dropped = %d, want %d", got, want)
	}
	ids := map[uint32]bool{}
	for _, s := range b.Spans() {
		if ids[s.ID] {
			t.Fatalf("slot collision on span ID %d", s.ID)
		}
		ids[s.ID] = true
	}
}

func mkTrace(id uint64, status string, wall time.Duration) *Trace {
	return &Trace{TraceID: id, ReqID: fmt.Sprintf("R%d", id), Kind: "query", Status: status, Wall: wall}
}

func TestCollectorDisabled(t *testing.T) {
	if c := NewCollector(CollectorOptions{}); c != nil {
		t.Fatal("NewCollector with no keep criteria should be nil")
	}
	var c *Collector
	if c.Enabled() {
		t.Fatal("nil collector reports enabled")
	}
	if c.Offer(mkTrace(1, "error", time.Second)) {
		t.Fatal("nil collector kept a trace")
	}
	if c.Stats() != (CollectorStats{}) {
		t.Fatal("nil collector stats not zero")
	}
}

func TestCollectorTailSampling(t *testing.T) {
	c := NewCollector(CollectorOptions{KeepOver: 5 * time.Millisecond})
	var sunk []uint64
	c.SetOnKeep(func(tr *Trace) { sunk = append(sunk, tr.TraceID) })
	cases := []struct {
		t    *Trace
		keep bool
		why  string
	}{
		{mkTrace(1, "ok", time.Millisecond), false, "fast ok trace with sample=0"},
		{mkTrace(2, "ok", 10*time.Millisecond), true, "over-threshold trace"},
		{mkTrace(3, "error", time.Millisecond), true, "error trace"},
		{mkTrace(4, "conflict", time.Millisecond), true, "conflict trace"},
	}
	for _, tc := range cases {
		if got := c.Offer(tc.t); got != tc.keep {
			t.Fatalf("Offer(%s) = %v, want %v", tc.why, got, tc.keep)
		}
	}
	st := c.Stats()
	if st.Started != 4 || st.Kept != 3 || st.Sampled != 1 {
		t.Fatalf("stats = %+v, want started=4 kept=3 sampled=1", st)
	}
	if fmt.Sprint(sunk) != "[2 3 4]" {
		t.Fatalf("sink received traces %v, want exactly the kept ones [2 3 4]", sunk)
	}

	all := NewCollector(CollectorOptions{Sample: 1})
	for i := uint64(1); i <= 20; i++ {
		if !all.Offer(mkTrace(i, "ok", time.Microsecond)) {
			t.Fatalf("sample=1 dropped trace %d", i)
		}
	}

	// A mid-range probabilistic rate keeps a mid-range share: the decision is
	// a deterministic hash of the trace ID, so the split is exact per seed.
	half := NewCollector(CollectorOptions{Sample: 0.5})
	keptN := 0
	for i := uint64(1); i <= 1000; i++ {
		if half.Offer(mkTrace(i, "ok", time.Microsecond)) {
			keptN++
		}
	}
	if keptN < 350 || keptN > 650 {
		t.Fatalf("sample=0.5 kept %d/1000, outside [350,650]", keptN)
	}
}

// TestDisabledPathAllocs pins the whole point of nil-safety: with tracing
// off, the request path's span calls must not allocate at all.
func TestDisabledPathAllocs(t *testing.T) {
	var b *Buf
	var c *Collector
	start := time.Unix(0, 0)
	allocs := testing.AllocsPerRun(1000, func() {
		b.Record(StageExecute, RootID, start, time.Millisecond)
		b.RecordNs(StageWALAppend, RootID, 0, 1, 2)
		id := b.Reserve(StageParsePlan, RootID)
		b.Complete(id, start, 0)
		b.Finish(start, time.Millisecond)
		b.NoteSeq(1)
		_ = b.CommitSeq()
		_ = b.Spans()
		_ = c.Offer(nil)
	})
	if allocs != 0 {
		t.Fatalf("disabled tracing path allocates %.1f per op, want 0", allocs)
	}
}
