// Package workload implements the applications TROD's evaluation runs on:
// a Moodle-like forum service (bugs MDL-59854 and MDL-60669), a
// MediaWiki-like wiki service (bugs MW-44325 and MW-39225), a profile
// service with access-control bugs (§4.2), and a multi-handler microservice
// benchmark used for the tracing-overhead experiment (§3.7). Each app is a
// set of deterministic handlers over the TROD runtime, with both buggy and
// fixed variants where the paper's case studies discuss a fix.
package workload

import (
	"fmt"

	"repro/internal/db"
	"repro/internal/provenance"
	"repro/internal/runtime"
)

// MoodleSchema is the forum service's schema. Like Moodle's
// mdl_forum_subscriptions, forum_sub has a surrogate primary key and no
// uniqueness constraint on (userId, forum) — the precondition for MDL-59854.
const MoodleSchema = `
CREATE TABLE forum_sub (id INTEGER PRIMARY KEY, userId TEXT, forum TEXT, course TEXT);
CREATE TABLE courses (name TEXT PRIMARY KEY, deleted BOOL);
`

// MoodleTables maps the forum service's tables to provenance event tables
// (the paper's ForumEvents naming).
var MoodleTables = provenance.TableMap{
	"forum_sub": "ForumEvents",
	"courses":   "CourseEvents",
}

// SetupMoodle creates the forum schema and seed courses.
func SetupMoodle(d *db.DB) error {
	if err := d.ExecScript(MoodleSchema); err != nil {
		return err
	}
	return d.ExecScript(`INSERT INTO courses VALUES ('C1', FALSE), ('C2', FALSE)`)
}

// nextSubID allocates the next forum_sub id transactionally — Moodle's
// auto-increment, deterministic per P3 (a function of database state).
func nextSubID(tx *db.Tx) (int64, error) {
	rows, err := tx.Query(`SELECT COALESCE(MAX(id), 0) FROM forum_sub`)
	if err != nil {
		return 0, err
	}
	return rows.Rows[0][0].AsInt() + 1, nil
}

// RegisterMoodle installs the forum service's handlers with the BUGGY
// subscribeUser of Figure 1: the existence check and the insert run in two
// separate transactions (the MDL-59854 TOCTOU race).
func RegisterMoodle(app *runtime.App) {
	app.Register("subscribeUser", func(c *runtime.Ctx, args runtime.Args) (any, error) {
		user, forum, course := args.String("userId"), args.String("forum"), args.String("course")
		if course == "" {
			course = "C1"
		}
		var exists bool
		// 1st transaction: check subscription.
		if err := c.Txn("isSubscribed", func(tx *db.Tx) error {
			rows, err := tx.Query(`SELECT id FROM forum_sub WHERE userId = ? AND forum = ?`, user, forum)
			if err != nil {
				return err
			}
			exists = len(rows.Rows) > 0
			return nil
		}); err != nil {
			return nil, err
		}
		if exists {
			return true, nil
		}
		// 2nd transaction: insert a subscription entry.
		err := c.Txn("DB.insert", func(tx *db.Tx) error {
			id, err := nextSubID(tx)
			if err != nil {
				return err
			}
			_, err = tx.Exec(`INSERT INTO forum_sub VALUES (?, ?, ?, ?)`, id, user, forum, course)
			return err
		})
		if err != nil {
			return nil, err
		}
		return true, nil
	})
	registerMoodleCommon(app)
}

// RegisterMoodleFixed installs the PATCHED subscribeUser suggested in the
// MDL-59854 discussion: isSubscribed and DB.insert wrapped in one
// transaction, which the serializable database then makes race-free.
func RegisterMoodleFixed(app *runtime.App) {
	app.Register("subscribeUser", func(c *runtime.Ctx, args runtime.Args) (any, error) {
		user, forum, course := args.String("userId"), args.String("forum"), args.String("course")
		if course == "" {
			course = "C1"
		}
		err := c.Txn("subscribeAtomic", func(tx *db.Tx) error {
			rows, err := tx.Query(`SELECT id FROM forum_sub WHERE userId = ? AND forum = ?`, user, forum)
			if err != nil {
				return err
			}
			if len(rows.Rows) > 0 {
				return nil
			}
			id, err := nextSubID(tx)
			if err != nil {
				return err
			}
			_, err = tx.Exec(`INSERT INTO forum_sub VALUES (?, ?, ?, ?)`, id, user, forum, course)
			return err
		})
		if err != nil {
			return nil, err
		}
		return true, nil
	})
	registerMoodleCommon(app)
}

// registerMoodleCommon installs the handlers shared by both variants.
func registerMoodleCommon(app *runtime.App) {
	// fetchSubscribers raises an error on duplicated userIds — the symptom
	// that exposed MDL-59854 (Figure 1).
	app.Register("fetchSubscribers", func(c *runtime.Ctx, args runtime.Args) (any, error) {
		rows, err := c.Query("DB.executeQuery", `SELECT userId FROM forum_sub WHERE forum = ? ORDER BY id`, args.String("forum"))
		if err != nil {
			return nil, err
		}
		seen := map[string]bool{}
		var users []string
		for _, r := range rows.Rows {
			u := r[0].AsText()
			if seen[u] {
				return nil, fmt.Errorf("fetchSubscribers: duplicated values in column userId")
			}
			seen[u] = true
			users = append(users, u)
		}
		return users, nil
	})

	// deleteCourse soft-deletes a course; its subscriptions stay behind —
	// the precondition for MDL-60669.
	app.Register("deleteCourse", func(c *runtime.Ctx, args runtime.Args) (any, error) {
		_, err := c.Exec("DB.update", `UPDATE courses SET deleted = TRUE WHERE name = ?`, args.String("course"))
		return err == nil, err
	})

	// restoreCourse re-activates a course and VALIDATES its subscriptions;
	// duplicated (userId, forum) pairs inside the course make it fail —
	// that is MDL-60669: the MDL-59854 patch stopped new duplicates but old
	// ones in deleted courses still break restore.
	app.Register("restoreCourse", func(c *runtime.Ctx, args runtime.Args) (any, error) {
		course := args.String("course")
		var restoreErr error
		err := c.Txn("DB.restore", func(tx *db.Tx) error {
			rows, err := tx.Query(`SELECT userId, forum FROM forum_sub WHERE course = ? ORDER BY id`, course)
			if err != nil {
				return err
			}
			seen := map[string]bool{}
			for _, r := range rows.Rows {
				key := r[0].AsText() + "|" + r[1].AsText()
				if seen[key] {
					restoreErr = fmt.Errorf("restoreCourse: duplicate subscription %s in deleted course %s", key, course)
					return nil // commit the read-only txn; surface app error after
				}
				seen[key] = true
			}
			_, err = tx.Exec(`UPDATE courses SET deleted = FALSE WHERE name = ?`, course)
			return err
		})
		if err != nil {
			return nil, err
		}
		if restoreErr != nil {
			return nil, restoreErr
		}
		return true, nil
	})

	// unsubscribe removes all of a user's subscriptions to a forum; part of
	// the dedup cleanup path developers used when fixing MDL-59854.
	app.Register("unsubscribe", func(c *runtime.Ctx, args runtime.Args) (any, error) {
		rows, err := c.Exec("DB.delete", `DELETE FROM forum_sub WHERE userId = ? AND forum = ?`, args.String("userId"), args.String("forum"))
		if err != nil {
			return nil, err
		}
		return rows.RowsAffected > 0, nil
	})
}

// NoDuplicateSubscription is MDL-59854's retroactive invariant: no user is
// subscribed to the same forum twice.
func NoDuplicateSubscription(dev *db.DB) error {
	r, err := firstRow(dev, `SELECT userId, forum FROM forum_sub GROUP BY userId, forum HAVING COUNT(*) > 1`)
	if r != nil {
		err = fmt.Errorf("duplicate subscription (%s, %s)", r[0].AsText(), r[1].AsText())
	}
	return err
}
