package trod_test

import (
	"fmt"

	trod "repro"
	"repro/internal/workload"
)

// Example_moodle is the paper's running example, Moodle bug MDL-59854
// (§§2–3), followed by its sequel MDL-60669 (§4.1). Two subscribeUser
// requests race through Figure 1's check-then-insert window and subscribe
// U1 to F2 twice. The §3.3 query finds both inserts, Tables 1 and 2 show
// the provenance behind it, the late request replays faithfully with the
// other's insert injected between its transactions (Figure 3, top), and
// the one-transaction fix passes every interleaving of the original
// requests (Figure 3, bottom).
func Example_moodle() {
	sys := must(trod.NewSystem(trod.Config{
		Schema:      workload.MoodleSchema + `INSERT INTO courses VALUES ('C1', FALSE);`,
		TraceTables: workload.MoodleTables,
	}))
	defer sys.Close()
	workload.RegisterMoodle(sys.App)

	sub := trod.Args{"userId": "U1", "forum": "F2"}
	check(workload.Race(sys.App, "subscribeUser", "DB.insert", "R1", "R2", sub, sub))
	_, err := sys.App.InvokeWithReqID("R3", "fetchSubscribers", trod.Args{"forum": "F2"})
	fmt.Println("R3:", err)
	check(sys.Flush())

	fmt.Println("\n== §3.3: who inserted (U1, F2)? ==")
	dbg := must(sys.Prov.Query(`SELECT Timestamp, ReqId, HandlerName
		FROM Executions as E, ForumEvents as F
		ON E.TxnId = F.TxnId
		WHERE F.UserId = 'U1' AND F.Forum = 'F2'
		AND F.Type = 'Insert'
		ORDER BY Timestamp ASC`))
	fmt.Print(trod.FormatRows(dbg))
	fmt.Println("\n== Table 1: Executions ==")
	fmt.Print(trod.FormatRows(must(sys.Prov.Query(`SELECT TxnId, Timestamp, HandlerName, ReqId, Func
		FROM Executions WHERE Committed = TRUE ORDER BY Timestamp`))))
	fmt.Println("\n== Table 2: ForumEvents ==")
	fmt.Print(trod.FormatRows(must(sys.Prov.Query(`SELECT TxnId, Type, Query, UserId, Forum
		FROM ForumEvents ORDER BY EvId`))))

	late := dbg.Rows[1][1].AsText()
	fmt.Printf("\n== Figure 3 (top): replay %s ==\n", late)
	report := must(sys.Replayer().Replay(late, workload.RegisterMoodle, trod.ReplayOptions{
		OnBreakpoint: func(bp trod.Breakpoint) {
			fmt.Printf("breakpoint %d before %s: %d foreign change(s)\n", bp.Step, bp.Func, len(bp.Injected))
			for _, ch := range bp.Injected {
				fmt.Printf("  injected %s %s %v\n", ch.Op, ch.Table, ch.After)
			}
		},
	}))
	fmt.Printf("faithful: %v, foreign writers: %v\n", !report.Diverged, report.ForeignWriters)

	fmt.Println("\n== Figure 3 (bottom): retroactive test of the fix ==")
	opts := trod.RetroOptions{Invariant: workload.NoDuplicateSubscription}
	fixed := must(sys.Retro().Run([]string{"R1", "R2", "R3"}, workload.RegisterMoodleFixed, opts))
	fmt.Println("phases:", fixed.Phases)
	for _, s := range fixed.Schedules {
		fmt.Printf("schedule %v: invariant error %v, R3 error %v\n", s.Order, s.InvariantErr, s.Requests[2].Err)
	}
	fmt.Println("fix holds in every schedule:", fixed.AllInvariantsHold())
	buggy := must(sys.Retro().Run([]string{"R1", "R2", "R3"}, workload.RegisterMoodle, opts))
	violated := 0
	for _, s := range buggy.Schedules {
		if s.InvariantErr != nil {
			violated++
		}
	}
	fmt.Printf("buggy code violates it in %d of %d schedules\n", violated, len(buggy.Schedules))

	fmt.Println("\n== §4.1 MDL-60669: restore the deleted course ==")
	must(sys.App.InvokeWithReqID("R4", "deleteCourse", trod.Args{"course": "C1"}))
	_, restoreErr := sys.App.InvokeWithReqID("R5", "restoreCourse", trod.Args{"course": "C1"})
	fmt.Println("R5:", restoreErr)
	check(sys.Flush())
	culprits := must(sys.Prov.Query(`SELECT E.ReqId FROM Executions as E, ForumEvents as F
		ON E.TxnId = F.TxnId WHERE F.Type = 'Insert' AND F.course = 'C1' ORDER BY E.Timestamp`))
	fmt.Print(trod.FormatRows(culprits))
	restore := must(sys.Replayer().Replay("R5", workload.RegisterMoodle, trod.ReplayOptions{}))
	patched := must(sys.Retro().Run([]string{"R1", "R2", "R3", "R4", "R5"}, workload.RegisterMoodleFixed, opts))
	printCase("MDL-60669", restoreErr != nil, len(culprits.Rows) == 2,
		!restore.Diverged && restore.Err != nil, patched.AllInvariantsHold())
	// Output:
	// R3: fetchSubscribers: duplicated values in column userId
	//
	// == §3.3: who inserted (U1, F2)? ==
	// Timestamp  ReqId  HandlerName
	// ---------  -----  -----------
	// 6          R2     subscribeUser
	// 9          R1     subscribeUser
	//
	// == Table 1: Executions ==
	// TxnId  Timestamp  HandlerName       ReqId  Func
	// -----  ---------  -----------       -----  ----
	// 2      2          subscribeUser     R1     isSubscribed
	// 3      4          subscribeUser     R2     isSubscribed
	// 4      6          subscribeUser     R2     DB.insert
	// 5      9          subscribeUser     R1     DB.insert
	// 6      12         fetchSubscribers  R3     DB.executeQuery
	//
	// == Table 2: ForumEvents ==
	// TxnId  Type    Query                                                     UserId  Forum
	// -----  ----    -----                                                     ------  -----
	// 2      Read    SELECT id FROM forum_sub WHERE userId = ? AND forum = ?   null    null
	// 3      Read    SELECT id FROM forum_sub WHERE userId = ? AND forum = ?   null    null
	// 4      Insert                                                            U1      F2
	// 4      Read    SELECT COALESCE(MAX(id), 0) FROM forum_sub                null    null
	// 5      Insert                                                            U1      F2
	// 5      Read    SELECT COALESCE(MAX(id), 0) FROM forum_sub                U1      F2
	// 6      Read    SELECT userId FROM forum_sub WHERE forum = ? ORDER BY id  U1      F2
	// 6      Read    SELECT userId FROM forum_sub WHERE forum = ? ORDER BY id  U1      F2
	//
	// == Figure 3 (top): replay R1 ==
	// breakpoint 0 before isSubscribed: 0 foreign change(s)
	// breakpoint 1 before DB.insert: 1 foreign change(s)
	//   injected Insert forum_sub (1, 'U1', 'F2', 'C1')
	// faithful: true, foreign writers: [R2]
	//
	// == Figure 3 (bottom): retroactive test of the fix ==
	// phases: [[R1 R2] [R3]]
	// schedule [R1 R2 R3]: invariant error <nil>, R3 error <nil>
	// schedule [R2 R1 R3]: invariant error <nil>, R3 error <nil>
	// fix holds in every schedule: true
	// buggy code violates it in 4 of 6 schedules
	//
	// == §4.1 MDL-60669: restore the deleted course ==
	// R5: restoreCourse: duplicate subscription U1|F2 in deleted course C1
	// ReqId
	// -----
	// R2
	// R1
	// MDL-60669: reproduced=true located=true replayed=true fix-validated=true
}
