package trod_test

import (
	"fmt"

	trod "repro"
	"repro/internal/workload"
)

// Example_mediawiki runs the two MediaWiki case studies of §4.1 through
// TROD. MW-44325: two addSiteLink requests both pass the uniqueness check
// before either inserts, duplicating a site link. MW-39225: two editPage
// requests append their revisions and then refresh the cached page size in
// the opposite order, so the cache disagrees with the latest revision.
func Example_mediawiki() {
	sys := must(trod.NewSystem(trod.Config{
		Schema: workload.MediaWikiSchema + `
			INSERT INTO pages VALUES (1, 'Main_Page', 0);
			INSERT INTO revisions VALUES (1, 1, '', 0);`,
		TraceTables: workload.MediaWikiTables,
	}))
	defer sys.Close()
	workload.RegisterMediaWiki(sys.App)

	fmt.Println("== MW-44325: duplicate site links ==")
	link := trod.Args{"pageId": 1, "url": "https://example.org/wiki"}
	check(workload.Race(sys.App, "addSiteLink", "insertSiteLink", "R1", "R2", link, link))
	_, linkErr := sys.App.InvokeWithReqID("R3", "checkSiteLinks", nil)
	fmt.Println("R3:", linkErr)
	check(sys.Flush())
	inserts := must(sys.Prov.Query(`SELECT E.Timestamp, E.ReqId, L.url
		FROM Executions as E, SiteLinkEvents as L ON E.TxnId = L.TxnId
		WHERE L.Type = 'Insert' ORDER BY E.Timestamp`))
	fmt.Print(trod.FormatRows(inserts))
	late := must(sys.Replayer().Replay(inserts.Rows[1][1].AsText(), workload.RegisterMediaWiki, trod.ReplayOptions{}))
	fmt.Printf("replay %s: foreign writers %v\n", late.ReqID, late.ForeignWriters)
	fixed := must(sys.Retro().Run([]string{"R1", "R2", "R3"}, workload.RegisterMediaWikiFixed,
		trod.RetroOptions{Invariant: workload.NoDuplicateSiteLink}))
	fmt.Println("fix schedules:", len(fixed.Schedules))
	printCase("MW-44325", linkErr != nil, len(inserts.Rows) == 2,
		!late.Diverged && len(late.ForeignWriters) == 1, fixed.AllInvariantsHold())

	fmt.Println("\n== MW-39225: wrong article sizes ==")
	check(workload.Race(sys.App, "editPage", "updatePageSize", "R4", "R5",
		trod.Args{"pageId": 1, "content": "tiny"},
		trod.Args{"pageId": 1, "content": "a considerably longer article body"}))
	_, infoErr := sys.App.InvokeWithReqID("R6", "pageInfo", trod.Args{"pageId": 1})
	fmt.Println("R6:", infoErr)
	check(sys.Flush())
	updates := must(sys.Prov.Query(`SELECT E.Timestamp, E.ReqId, P.size
		FROM Executions as E, PageEvents as P ON E.TxnId = P.TxnId
		WHERE P.Type = 'Update' ORDER BY E.Timestamp`))
	fmt.Print(trod.FormatRows(updates))
	late = must(sys.Replayer().Replay(updates.Rows[1][1].AsText(), workload.RegisterMediaWiki, trod.ReplayOptions{}))
	fmt.Printf("replay %s: foreign writers %v\n", late.ReqID, late.ForeignWriters)
	fixed = must(sys.Retro().Run([]string{"R4", "R5", "R6"}, workload.RegisterMediaWikiFixed, trod.RetroOptions{}))
	fmt.Println("fix schedules:", len(fixed.Schedules))
	printCase("MW-39225", infoErr != nil, len(updates.Rows) == 2,
		!late.Diverged && len(late.ForeignWriters) == 1, fixed.AllInvariantsHold())
	// Output:
	// == MW-44325: duplicate site links ==
	// R3: checkSiteLinks: duplicated site link https://example.org/wiki
	// Timestamp  ReqId  url
	// ---------  -----  ---
	// 6          R2     https://example.org/wiki
	// 9          R1     https://example.org/wiki
	// replay R1: foreign writers [R2]
	// fix schedules: 2
	// MW-44325: reproduced=true located=true replayed=true fix-validated=true
	//
	// == MW-39225: wrong article sizes ==
	// R6: pageInfo: cached size 4 does not match latest revision size 34
	// Timestamp  ReqId  size
	// ---------  -----  ----
	// 21         R5     34
	// 24         R4     4
	// replay R4: foreign writers [R5]
	// fix schedules: 2
	// MW-39225: reproduced=true located=true replayed=true fix-validated=true
}
