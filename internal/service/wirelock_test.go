package service

import (
	"testing"

	"questgo/internal/wiretest"
)

// TestWireLocked pins the seven job-API documents to
// testdata/service.manifest; see internal/wiretest for the bump/regenerate
// rule.
func TestWireLocked(t *testing.T) {
	var roots []wiretest.Root
	for _, doc := range []any{JobRequest{}, JobStatus{}, JobResult{}, Event{}, Estimate{}, Stats{}, errorDoc{}} {
		roots = append(roots, wiretest.Root{Doc: doc, VersionConst: "JobSchemaVersion", Version: JobSchemaVersion})
	}
	if err := wiretest.Check("testdata/service.manifest", roots...); err != nil {
		t.Fatal(err)
	}
}
