package projection

import (
	"encoding/json"
	"testing"
)

// FuzzRestore feeds arbitrary checkpoint JSON through the restart path an
// operator's /projections endpoint and ageload's report depend on:
// Restore, refeed, Close, Snapshot, Checkpoint. A checkpoint the decoder
// accepts must never crash a worker or a snapshot.
func FuzzRestore(f *testing.F) {
	cfg := Config{T: testT, D: testD, Window: 4, Now: func() int64 { return 5e9 }}
	e := New(cfg)
	feedAll(e, 2, 0, 6)
	e.CompleteSensor(0)
	e.Close()
	live, err := json.Marshal(e.Checkpoint())
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range []string{
		string(live),
		`{"workers":{"mae":{"state":{"per_sensor":{"5":null}}}}}`,
		`{"workers":{"privacy":{"state":{"arrivals":{"5":null}}}}}`,
		`{"workers":{"mae":{"state":{"ring":[1,2,3,4,5,6],"ring_next":11,"ring_len":6}}}}`,
		`{"workers":{"mae":{"state":{"ring":[1,2,3,4],"ring_next":9223372036854775807}}}}`,
		`{"sensors":{"0":{"resume":1000000000}}}`,
		`{"sensors":{"1":{"resume":3}},"workers":{"privacy":{"cursors":{"1":3},"state":` + privacyFixtureCheckpoint + `}}}`,
		`{"sensors":{"0":{"resume":2,"complete":true}},"workers":{"events":{"cursors":{"0":2},"state":{"last_label":{"0":1}}}}}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var cp Checkpoint
		if json.Unmarshal(data, &cp) != nil {
			return
		}
		e := Restore(cfg, cp)
		for _, id := range []int{0, 1} {
			from := 0
			if r := cp.Sensors[id].Resume; r > 0 && r < 1<<20 {
				from = r
			}
			for i := from; i < from+3; i++ {
				e.Feed(id, feedRecord(id, i))
			}
			e.CompleteSensor(id)
		}
		e.Close()
		_, _ = json.Marshal(e.Snapshot())
		_ = e.Checkpoint()
	})
}
