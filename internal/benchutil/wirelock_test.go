package benchutil

import (
	"testing"

	"questgo/internal/wiretest"
)

// TestWireLocked pins the Record document to testdata/benchutil.manifest;
// see internal/wiretest for the bump/regenerate rule.
func TestWireLocked(t *testing.T) {
	if err := wiretest.Check("testdata/benchutil.manifest",
		wiretest.Root{Doc: Record{}, VersionConst: "RecordSchemaVersion", Version: RecordSchemaVersion},
	); err != nil {
		t.Fatal(err)
	}
}
