package service

import (
	"encoding/json"
	"testing"

	"questgo/internal/core"
)

// FuzzJobRequest feeds arbitrary bytes through the submit handler's
// decoding — json into a JobRequest, then normalize — which must never
// panic; a request that normalizes must survive json.Marshal, decode and
// normalize again with the same cacheKey, the identity the result cache
// serves it under.
func FuzzJobRequest(f *testing.F) {
	valid, err := json.Marshal(JobRequest{Config: core.DefaultConfig(), Shards: 3, Tag: "t"})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte(`{"config":{"nx":4,"ny":4,"layers":1,"beta":2,"l":10,"meas":1},"shards":0,"no_cache":true}`))
	f.Add([]byte(`{"schema_version":"9.0","config":{}}`))
	f.Add([]byte(`{"config":{"nx":2,"ny":2,"layers":1,"beta":1,"l":4,"meas":1,"autopilot":true},"shards":2}`))
	f.Add([]byte(`{"shards":-1e3,"config":null}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var req JobRequest
		if json.Unmarshal(data, &req) != nil || req.normalize() != nil {
			return
		}
		b, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("marshal a normalized request: %v", err)
		}
		var back JobRequest
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatalf("normalized request %s does not decode: %v", b, err)
		}
		if err := back.normalize(); err != nil {
			t.Fatalf("normalized request %s fails normalize after the round trip: %v", b, err)
		}
		if back.cacheKey() != req.cacheKey() {
			t.Fatalf("cache key %s after the round trip, %s before (%s)", back.cacheKey(), req.cacheKey(), b)
		}
	})
}
