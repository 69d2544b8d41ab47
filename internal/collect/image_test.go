package collect

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"net/http"
	"reflect"
	"runtime"
	"testing"
	"time"

	"cbi/internal/analysis/score"
	"cbi/internal/quality"
)

// goldenStates drives one edge and one root through the real ingest,
// cut and merge paths and returns their CBS1 state images. The edge's
// parent refuses every push, so both of its epochs stay pending and its
// image carries the two CBA1 payloads verbatim; the root has merged
// those two epochs and taken three reports of its own.
func goldenStates(t *testing.T) (edgeImg, rootImg []byte) {
	t.Helper()
	spans := []score.SiteSpan{{Base: 0, Len: 1}, {Base: 1, Len: 2}}
	refuse := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down", http.StatusServiceUnavailable)
	})
	edge := NewServer("p", 3, AggregateOnly)
	edge.Sites = spans
	edge.Quality = quality.New(quality.Config{Interval: -1})
	edge.Federation = &Federation{
		Parent: "http://root", EdgeID: "edge-golden", Interval: time.Hour,
		HTTP: &http.Client{Transport: handlerTransport{refuse}},
	}
	h := edge.Handler()
	cut := func() {
		if edge.FederateNow() == nil {
			t.Fatal("a refusing parent acknowledged a push")
		}
	}
	feedSpill(t, h, 0, 6)
	cut()
	feedSpill(t, h, 6, 4)
	cut()
	f := edge.fed
	f.mu.Lock()
	edgeImg = edge.buildSpillState(serverCut{agg: f.baseAgg, acc: f.baseAcc, qual: f.baseQual})
	pending := f.pending
	f.mu.Unlock()
	edge.Crash()

	root := NewServer("p", 3, AggregateOnly)
	root.AcceptMerges = true
	root.Sites = spans
	root.Quality = quality.New(quality.Config{Interval: -1})
	rh := root.Handler()
	for _, p := range pending {
		if rec, _ := postMerge(t, rh, p.payload); rec.Code != http.StatusOK {
			t.Fatalf("merge: %d %s", rec.Code, rec.Body)
		}
	}
	feedSpill(t, rh, 100, 3)
	rootImg = root.buildSpillState(root.captureCut())
	root.Crash()
	return edgeImg, rootImg
}

// The state files as the separate CBA1 and CBS1 codecs wrote them before
// the two formats shared one: the shared codec must not move a byte.
const (
	goldenEdgeState = "43425331010b656467652d676f6c64656e020170030204010a030a020200033702030a021203020a0202000208020208020002080102" +
		"08030f070a000a000000000000000aaa011404930102014743424131010b656467652d676f6c64656e010170030203010a030601020003" +
		"150203060212030206010200010502010502000105010105030e070600060000000000000006660c024743424131010b656467652d676f" +
		"6c64656e020170030203010a030401020000220200040212030204010200010302010302000103010103030e0704000400000000000000" +
		"044408"
	goldenRootState = "434253310100000170030204010b030d02020003e90202030d021203020d020200020b02020b0200020b01020b030f070d000d00000000" +
		"0000000ddd011a050e010b656467652d676f6c64656e02"
)

func TestStateImageGolden(t *testing.T) {
	edgeImg, rootImg := goldenStates(t)
	if got := hex.EncodeToString(edgeImg); got != goldenEdgeState {
		t.Errorf("edge state image moved:\n got %s\nwant %s", got, goldenEdgeState)
	}
	if got := hex.EncodeToString(rootImg); got != goldenRootState {
		t.Errorf("root state image moved:\n got %s\nwant %s", got, goldenRootState)
	}

	st, pending, cursors, err := decodeSpillState(edgeImg)
	if err != nil {
		t.Fatal(err)
	}
	if st.edgeID != "edge-golden" || st.epoch != 2 || len(pending) != 2 || cursors != nil {
		t.Fatalf("edge state: id %q epoch %d, %d pending, cursors %v", st.edgeID, st.epoch, len(pending), cursors)
	}
	for i, p := range pending {
		env, err := decodeMergeEnvelope(p.payload)
		if err != nil || env.epoch != p.epoch || p.epoch != uint64(i+1) || env.numSpans != 2 {
			t.Fatalf("pending epoch %d: %+v, %v", p.epoch, env, err)
		}
	}
	st, pending, cursors, err = decodeSpillState(rootImg)
	if err != nil {
		t.Fatal(err)
	}
	if st.edgeID != "" || pending != nil || !reflect.DeepEqual(cursors, map[string]uint64{"edge-golden": 2}) {
		t.Fatalf("root state: id %q, %d pending, cursors %v", st.edgeID, len(pending), cursors)
	}
}

// FuzzStateImage throws arbitrary bytes at both state-image decoders
// under both magics: none may panic or allocate far beyond the input's
// size, and whatever decodes re-encodes to an image that decodes the
// same and re-encodes to itself.
func FuzzStateImage(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte(mergeMagic))
	f.Add([]byte(spillMagic))
	for _, h := range []string{goldenEdgeState, goldenRootState} {
		img, _ := hex.DecodeString(h)
		for cut := 0; cut <= len(img); cut += 5 {
			f.Add(img[:cut])
		}
		f.Add(img)
		if _, pending, _, err := decodeSpillState(img); err == nil {
			for _, p := range pending {
				f.Add(p.payload) // CBA1
			}
		}
	}
	// Element counts far beyond what their sections have bytes for.
	f.Add(encodeStateImage(spillMagic, &stateImage{cursorsRaw: binary.AppendUvarint(nil, maxSpillEdges)}))
	f.Add(encodeStateImage(spillMagic, &stateImage{pendingRaw: binary.AppendUvarint(nil, maxSpillPending)}))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, magic := range []string{mergeMagic, spillMagic} {
			img, err := decodeStateImage(magic, data)
			if err != nil {
				continue
			}
			enc := encodeStateImage(magic, img)
			again, err := decodeStateImage(magic, enc)
			if err != nil {
				t.Fatalf("%s: re-encoded image does not decode: %v", magic, err)
			}
			if !reflect.DeepEqual(img, again) {
				t.Fatalf("%s: round trip:\n%+v\n%+v", magic, img, again)
			}
			if !bytes.Equal(encodeStateImage(magic, again), enc) {
				t.Fatalf("%s: encoding is not a fixed point", magic)
			}
		}
		_, _ = decodeMergeEnvelope(data)

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		st, pending, cursors, err := decodeSpillState(data)
		runtime.ReadMemStats(&after)
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20+256*uint64(len(data)) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), alloc)
		}
		if err != nil {
			return
		}
		st2, pending2, cursors2, err := decodeSpillState(encodeStateImage(spillMagic, st))
		if err != nil || !reflect.DeepEqual(pending, pending2) || !reflect.DeepEqual(cursors, cursors2) ||
			!reflect.DeepEqual(st, st2) {
			t.Fatalf("CBS1 round trip: %v", err)
		}
	})
}
