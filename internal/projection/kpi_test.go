package projection

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"repro/internal/staging"
)

// TestRestoreMAERingForeignCheckpoint restores mae checkpoints the worker
// did not write at its own window. A negative ring_next is rejected, so
// the first fold cannot index the ring at -1. A ring written under a
// larger window keeps its last Window entries in write order: restored
// and fed on, it matches a KPI that ran at the smaller window all along.
// A checkpoint written at the KPI's own window round-trips byte for byte.
func TestRestoreMAERingForeignCheckpoint(t *testing.T) {
	rec := feedRecord(0, 1)

	bad := newMAEKPI(Config{T: testT, D: testD, Window: 64}.withDefaults())
	bad.unmarshal(json.RawMessage(`{"count":64,"sum_mae":64,"ring":[` +
		string(bytes.Repeat([]byte("1,"), 63)) + `1],"ring_next":-1,"ring_len":64}`))
	bad.apply(0, rec)
	if bad.state.Count != 1 || len(bad.ring) != 1 {
		t.Errorf("after a rejected restore and one fold: count %d, ring %d entries, want 1 and 1",
			bad.state.Count, len(bad.ring))
	}

	const window, wide, records = 4, 128, 200 // records is a multiple of window
	big := newMAEKPI(Config{T: testT, D: testD, Window: wide}.withDefaults())
	small := newMAEKPI(Config{T: testT, D: testD, Window: window}.withDefaults())
	for i := 0; i < records; i++ {
		r := feedRecord(i%3, i)
		big.apply(i%3, r)
		small.apply(i%3, r)
	}
	restored := newMAEKPI(Config{T: testT, D: testD, Window: window}.withDefaults())
	restored.unmarshal(big.marshal())
	for i := records; ; i++ {
		if got, want := restored.snapshot(), small.snapshot(); !reflect.DeepEqual(got, want) {
			t.Fatalf("after %d records: restored snapshot %+v, want %+v", i, got, want)
		}
		if i == records+2*window+1 {
			break
		}
		r := feedRecord(i%3, i)
		restored.apply(i%3, r)
		small.apply(i%3, r)
	}

	for _, k := range []*maeKPI{big, small} {
		cp := k.marshal()
		again := newMAEKPI(Config{T: testT, D: testD, Window: k.window}.withDefaults())
		again.unmarshal(cp)
		if got := again.marshal(); !bytes.Equal(got, cp) {
			t.Errorf("window %d checkpoint round trip:\n got %s\nwant %s", k.window, got, cp)
		}
	}
}

// privacyFixtureRecords is a four-sensor stream with three labels, some
// unlabelled records and several wire sizes per label.
func privacyFixtureRecords() (ids []int, recs []staging.Record) {
	for s := 0; s < 4; s++ {
		for i := 0; i < 30; i++ {
			label := (s + i*i) % 3
			if (s*7+i)%11 == 0 {
				label = -1
			}
			ids = append(ids, s)
			recs = append(recs, staging.Record{
				Index:        i,
				WireBytes:    40 + 8*label + 4*((s*5+i)%3),
				Label:        label,
				RecvUnixNano: int64(1e9 + s*1e6 + i*1000 + (i*i%7)*100),
			})
		}
	}
	return ids, recs
}

// privacyFixtureCheckpoint is what the privacy KPI produced for
// privacyFixtureRecords when its joint table was keyed by "label,size"
// strings in memory; privacyFixtureNMI is the NMI of that table.
const (
	privacyFixtureCheckpoint = `{"records":120,"sizes":{"10":31,"12":9,"13":18,"14":36,"15":19,"8":4,"9":3},` +
		`"labels":{"0":36,"1":45,"2":28},"joint":{"0,10":27,"0,12":9,"1,13":18,"1,14":27,"2,14":9,"2,15":19},` +
		`"arrivals":{"0":{"records":30,"last_nano":1000029100,"sum_inter":29100,"max_inter":1300},` +
		`"1":{"records":30,"last_nano":1001029100,"sum_inter":29100,"max_inter":1300},` +
		`"2":{"records":30,"last_nano":1002029100,"sum_inter":29100,"max_inter":1300},` +
		`"3":{"records":30,"last_nano":1003029100,"sum_inter":29100,"max_inter":1300}}}`
	privacyFixtureNMI = 0.6881903896609803
)

// TestPrivacyCheckpointMatchesFixture pins the privacy KPI's checkpoint
// bytes and NMI bits, both when folded and after a restore.
func TestPrivacyCheckpointMatchesFixture(t *testing.T) {
	k := newPrivacyKPI(Config{SizeBucket: 4}.withDefaults())
	ids, recs := privacyFixtureRecords()
	for i, rec := range recs {
		k.apply(ids[i], rec)
	}
	restored := newPrivacyKPI(Config{SizeBucket: 4}.withDefaults())
	restored.unmarshal(json.RawMessage(privacyFixtureCheckpoint))
	for name, kpi := range map[string]*privacyKPI{"folded": k, "restored": restored} {
		if got := string(kpi.marshal()); got != privacyFixtureCheckpoint {
			t.Errorf("%s checkpoint:\n got %s\nwant %s", name, got, privacyFixtureCheckpoint)
		}
		if nmi := kpi.snapshot(2e9).NMI; math.Float64bits(nmi) != math.Float64bits(privacyFixtureNMI) {
			t.Errorf("%s NMI = %v, want %v", name, nmi, privacyFixtureNMI)
		}
	}
}

// TestPrivacyRestoreSkipsMalformedJointKeys checks that a joint key that
// is not "label,size" is dropped on restore rather than failing it.
func TestPrivacyRestoreSkipsMalformedJointKeys(t *testing.T) {
	k := newPrivacyKPI(Config{}.withDefaults())
	k.unmarshal(json.RawMessage(`{"records":3,"joint":{"0,10":2,"x,1":5,"7":1,"1,":4,"1,12":1}}`))
	want := jointCounts{{0, 10}: 2, {1, 12}: 1}
	if k.state.Records != 3 || !reflect.DeepEqual(k.state.Joint, want) {
		t.Errorf("restored records %d, joint %v; want 3, %v", k.state.Records, k.state.Joint, want)
	}
}

func BenchmarkMAEApply(b *testing.B) {
	k := newMAEKPI(Config{T: testT, D: testD}.withDefaults())
	rec := feedRecord(0, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.apply(i&7, rec)
	}
}

func BenchmarkEventApply(b *testing.B) {
	k := newEventKPI(Config{T: testT, D: testD, EventThreshold: 2.5}.withDefaults())
	rec := feedRecord(0, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.apply(i&7, rec)
	}
}

func BenchmarkPrivacyApply(b *testing.B) {
	k := newPrivacyKPI(Config{}.withDefaults())
	ids, recs := privacyFixtureRecords()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(recs)
		k.apply(ids[j], recs[j])
	}
}
