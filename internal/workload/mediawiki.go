package workload

import (
	"fmt"

	"repro/internal/db"
	"repro/internal/provenance"
	"repro/internal/runtime"
)

// MediaWikiSchema models the slice of MediaWiki the two case-study bugs
// live in: pages with a cached size, append-only revisions, and site links
// whose URLs are required (but not constrained) to be unique per page set.
const MediaWikiSchema = `
CREATE TABLE pages (pageId INTEGER PRIMARY KEY, title TEXT, size INTEGER);
CREATE TABLE revisions (revId INTEGER PRIMARY KEY, pageId INTEGER, content TEXT, size INTEGER);
CREATE TABLE sitelinks (linkId INTEGER PRIMARY KEY, pageId INTEGER, url TEXT);
`

// MediaWikiTables maps the wiki tables to provenance event tables.
var MediaWikiTables = provenance.TableMap{
	"pages":     "PageEvents",
	"revisions": "RevisionEvents",
	"sitelinks": "SiteLinkEvents",
}

// SetupMediaWiki creates the wiki schema and one seed page.
func SetupMediaWiki(d *db.DB) error {
	if err := d.ExecScript(MediaWikiSchema); err != nil {
		return err
	}
	return d.ExecScript(`
		INSERT INTO pages VALUES (1, 'Main_Page', 0);
		INSERT INTO revisions VALUES (1, 1, '', 0);
	`)
}

// RegisterMediaWiki installs the BUGGY handlers:
//
//   - editPage (MW-39225): the revision insert and the page-size update run
//     in two transactions, so concurrent edits interleave and the history
//     shows wrong article size changes.
//   - addSiteLink (MW-44325): the uniqueness check and the link insert run
//     in two transactions, so concurrent edits of the same page create
//     duplicated site URL links.
func RegisterMediaWiki(app *runtime.App) {
	app.Register("editPage", func(c *runtime.Ctx, args runtime.Args) (any, error) {
		pageID, content := args.Int("pageId"), args.String("content")
		size := int64(len(content))
		// 1st transaction: append the revision.
		if err := c.Txn("insertRevision", func(tx *db.Tx) error {
			rows, err := tx.Query(`SELECT COALESCE(MAX(revId), 0) FROM revisions`)
			if err != nil {
				return err
			}
			_, err = tx.Exec(`INSERT INTO revisions VALUES (?, ?, ?, ?)`, rows.Rows[0][0].AsInt()+1, pageID, content, size)
			return err
		}); err != nil {
			return nil, err
		}
		// 2nd transaction: refresh the cached page size (non-atomically —
		// the MW-39225 bug).
		if _, err := c.Exec("updatePageSize", `UPDATE pages SET size = ? WHERE pageId = ?`, size, pageID); err != nil {
			return nil, err
		}
		return size, nil
	})

	app.Register("addSiteLink", func(c *runtime.Ctx, args runtime.Args) (any, error) {
		pageID, url := args.Int("pageId"), args.String("url")
		var exists bool
		// 1st transaction: check that the URL is not linked yet.
		if err := c.Txn("checkSiteLink", func(tx *db.Tx) error {
			rows, err := tx.Query(`SELECT linkId FROM sitelinks WHERE url = ?`, url)
			if err != nil {
				return err
			}
			exists = len(rows.Rows) > 0
			return nil
		}); err != nil {
			return nil, err
		}
		if exists {
			return false, nil
		}
		// 2nd transaction: insert the link (non-atomically — MW-44325).
		err := c.Txn("insertSiteLink", func(tx *db.Tx) error {
			rows, err := tx.Query(`SELECT COALESCE(MAX(linkId), 0) FROM sitelinks`)
			if err != nil {
				return err
			}
			_, err = tx.Exec(`INSERT INTO sitelinks VALUES (?, ?, ?)`, rows.Rows[0][0].AsInt()+1, pageID, url)
			return err
		})
		if err != nil {
			return nil, err
		}
		return true, nil
	})

	registerMediaWikiCommon(app)
}

// RegisterMediaWikiFixed installs the patched handlers: each edit runs as a
// single atomic transaction.
func RegisterMediaWikiFixed(app *runtime.App) {
	app.Register("editPage", func(c *runtime.Ctx, args runtime.Args) (any, error) {
		pageID, content := args.Int("pageId"), args.String("content")
		size := int64(len(content))
		err := c.Txn("editAtomic", func(tx *db.Tx) error {
			rows, err := tx.Query(`SELECT COALESCE(MAX(revId), 0) FROM revisions`)
			if err != nil {
				return err
			}
			if _, err := tx.Exec(`INSERT INTO revisions VALUES (?, ?, ?, ?)`, rows.Rows[0][0].AsInt()+1, pageID, content, size); err != nil {
				return err
			}
			_, err = tx.Exec(`UPDATE pages SET size = ? WHERE pageId = ?`, size, pageID)
			return err
		})
		if err != nil {
			return nil, err
		}
		return size, nil
	})

	app.Register("addSiteLink", func(c *runtime.Ctx, args runtime.Args) (any, error) {
		pageID, url := args.Int("pageId"), args.String("url")
		var added bool
		err := c.Txn("siteLinkAtomic", func(tx *db.Tx) error {
			added = false
			rows, err := tx.Query(`SELECT linkId FROM sitelinks WHERE url = ?`, url)
			if err != nil {
				return err
			}
			if len(rows.Rows) > 0 {
				return nil
			}
			ids, err := tx.Query(`SELECT COALESCE(MAX(linkId), 0) FROM sitelinks`)
			if err != nil {
				return err
			}
			if _, err := tx.Exec(`INSERT INTO sitelinks VALUES (?, ?, ?)`, ids.Rows[0][0].AsInt()+1, pageID, url); err != nil {
				return err
			}
			added = true
			return nil
		})
		if err != nil {
			return nil, err
		}
		return added, nil
	})

	registerMediaWikiCommon(app)
}

func registerMediaWikiCommon(app *runtime.App) {
	// pageInfo reports the page's cached size and its latest revision's
	// size; MW-39225 manifests as a mismatch between the two.
	app.Register("pageInfo", func(c *runtime.Ctx, args runtime.Args) (any, error) {
		pageID := args.Int("pageId")
		var cached, latest int64
		err := c.Txn("DB.executeQuery", func(tx *db.Tx) error {
			rows, err := tx.Query(`SELECT size FROM pages WHERE pageId = ?`, pageID)
			if err != nil {
				return err
			}
			if len(rows.Rows) == 0 {
				return fmt.Errorf("pageInfo: no page %d", pageID)
			}
			cached = rows.Rows[0][0].AsInt()
			revs, err := tx.Query(`SELECT size FROM revisions WHERE pageId = ? ORDER BY revId DESC LIMIT 1`, pageID)
			if err != nil {
				return err
			}
			if len(revs.Rows) > 0 {
				latest = revs.Rows[0][0].AsInt()
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		if cached != latest {
			return nil, fmt.Errorf("pageInfo: cached size %d does not match latest revision size %d", cached, latest)
		}
		return cached, nil
	})

	// checkSiteLinks raises an error on duplicated URLs, the MW-44325
	// symptom.
	app.Register("checkSiteLinks", func(c *runtime.Ctx, args runtime.Args) (any, error) {
		rows, err := c.Query("DB.executeQuery", `SELECT url, COUNT(*) AS c FROM sitelinks GROUP BY url HAVING COUNT(*) > 1`)
		if err != nil {
			return nil, err
		}
		if len(rows.Rows) > 0 {
			return nil, fmt.Errorf("checkSiteLinks: duplicated site link %s", rows.Rows[0][0].AsText())
		}
		return true, nil
	})
}

// NoDuplicateSiteLink is MW-44325's retroactive invariant: no URL is linked
// twice.
func NoDuplicateSiteLink(dev *db.DB) error {
	r, err := firstRow(dev, `SELECT url FROM sitelinks GROUP BY url HAVING COUNT(*) > 1`)
	if r != nil {
		err = fmt.Errorf("duplicate site link %s", r[0].AsText())
	}
	return err
}
