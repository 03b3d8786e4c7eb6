package runsvc

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/corleone-em/corleone/internal/crowd"
	"github.com/corleone-em/corleone/internal/datagen"
	"github.com/corleone-em/corleone/internal/forest"
)

// refValidPrefix is the fuzz oracle for the frame format: the length of
// buf's longest prefix of whole, CRC-valid frames and the kind of the last
// one, written against the format description rather than decodeFrames.
func refValidPrefix(buf []byte) (valid, lastStart int, lastKind byte) {
	for len(buf)-valid >= 9 {
		n := int(binary.LittleEndian.Uint32(buf[valid:]))
		if n > maxFramePayload || n > len(buf)-valid-9 {
			break
		}
		sum := crc32.NewIEEE()
		sum.Write(buf[valid : valid+4])
		sum.Write(buf[valid+8 : valid+9+n])
		if sum.Sum32() != binary.LittleEndian.Uint32(buf[valid+4:]) {
			break
		}
		lastStart, lastKind = valid, buf[valid+8]
		valid += 9 + n
	}
	return valid, lastStart, lastKind
}

// replayState is everything a replay restores, in comparable form: the
// restored answer and pair counts, and the canonical dump of the entries.
type replayState struct {
	answers, pairs int
	labels         [][]byte
}

// replayFile opens and replays a job directory holding one journal file.
func replayFile(t *testing.T, name string, content []byte) (replayState, error) {
	t.Helper()
	root := t.TempDir()
	if err := os.MkdirAll(filepath.Join(root, "job"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, "job", name), content, 0o644); err != nil {
		t.Fatal(err)
	}
	store, err := NewStore(root)
	if err != nil {
		t.Fatal(err)
	}
	jl, err := store.Open("job")
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer jl.Close()
	r := crowd.NewRunner(nil, 0.01)
	_, err = jl.Replay(r)
	var st replayState
	st.answers, st.pairs = r.Restored()
	r.DumpLabelLog(func(e []byte) { st.labels = append(st.labels, bytes.Clone(e)) })
	return st, err
}

// checkLog replays data as a job's only log and holds the outcome to the
// replay of data's longest valid frame prefix: the same verdict, and on
// success the same state — whatever follows the prefix restores nothing.
// Returns the prefix length and whether the replay succeeded.
func checkLog(t *testing.T, data []byte) (valid int, ok bool) {
	t.Helper()
	valid, _, _ = refValidPrefix(data)
	got, gotErr := replayFile(t, logName(0), data)
	want, wantErr := replayFile(t, logName(0), data[:valid])
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("replay of %d bytes: err %v; of their %d-byte valid prefix: err %v", len(data), gotErr, valid, wantErr)
	}
	if gotErr == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("replay of %d bytes restored %+v; their %d-byte valid prefix restores %+v", len(data), got, valid, want)
	}
	return valid, gotErr == nil
}

// seedJobDir runs one small journaled job to completion and returns its
// directory — the real files the fuzz corpora are seeded from — and every
// byte appended to its logs, in order: the one log the job would have left
// had it never compacted.
func seedJobDir(f *testing.F, errRate float64) (string, []byte) {
	f.Helper()
	dir := f.TempDir()
	m, err := NewManager(Options{Workers: 1, JournalDir: dir})
	if err != nil {
		f.Fatal(err)
	}
	var history []byte
	m.Store().Faults = func(op Op) Fault {
		if op.Kind == OpAppend && strings.HasPrefix(op.File, logPrefix) {
			history = append(history, op.Data...)
		}
		return Fault{}
	}
	meta := testMeta(3, 0.1, errRate)
	j, err := m.Submit(Spec{Meta: &meta})
	if err != nil {
		f.Fatal(err)
	}
	_, err = j.Wait()
	m.Close()
	if err != nil {
		f.Fatal(err)
	}
	return filepath.Join(dir, j.ID), history
}

// FuzzJournalReplay feeds arbitrary bytes to the one decoder and the one
// replay loop, as a log and as a snapshot. Neither may panic or restore
// more than the input's longest valid frame prefix holds; a snapshot is
// all or nothing; and a valid log with one byte altered is rejected or
// cut back to a strict prefix, never replayed as something else.
func FuzzJournalReplay(f *testing.F) {
	// Seed corpus: the logs and snapshots of a real job, and its whole
	// append history as one log from record zero.
	dir, history := seedJobDir(f, 0)
	seeds, _ := filepath.Glob(filepath.Join(dir, "*.g*"))
	if len(seeds) == 0 {
		f.Fatal("seed job left no journal files")
	}
	f.Add(history, uint(0), byte(1))
	for i, path := range seeds {
		buf, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf, uint((i+1)*37), byte(1<<((i+1)%8)))
	}
	f.Add([]byte{}, uint(0), byte(1))
	f.Add(appendFrame(nil, kindEnd, []byte(`{}`)), uint(3), byte(0x80))

	f.Fuzz(func(t *testing.T, data []byte, pos uint, mask byte) {
		valid, ok := checkLog(t, data)

		// One altered byte in a wholly valid log.
		if ok && valid == len(data) && valid > 0 && mask != 0 {
			flipped := bytes.Clone(data)
			flipped[pos%uint(len(data))] ^= mask
			if v, _ := checkLog(t, flipped); v >= len(data) {
				t.Fatalf("byte %d ^ %#x left all %d bytes valid: silently altered", pos%uint(len(data)), mask, v)
			}
		}

		// As a snapshot: it restores only if every byte is a valid frame and
		// the last is the end frame, and then exactly what the frames before
		// the end frame restore as a log.
		got, err := replayFile(t, snapName(1), data)
		if err != nil {
			return
		}
		valid, endStart, lastKind := refValidPrefix(data)
		if valid != len(data) || lastKind != kindEnd {
			t.Fatalf("snapshot restored from %d bytes with valid prefix %d ending in frame kind %q", len(data), valid, lastKind)
		}
		want, err := replayFile(t, logName(0), data[:endStart])
		if err != nil {
			t.Fatalf("snapshot restored, but its frames fail as a log: %v", err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("snapshot restored %+v; its frames as a log restore %+v", got, want)
		}
	})
}

// FuzzSpecRecord feeds arbitrary bytes to the spec.json reader. ReadSpec is
// total — it decodes or returns an error — and a Meta it decodes either
// fails BuildSpec with an error or builds a runnable spec, never a panic.
// The corpus is seeded with the spec.json a real journaled job left behind.
func FuzzSpecRecord(f *testing.F) {
	dir, _ := seedJobDir(f, 0.05)
	seed, err := os.ReadFile(filepath.Join(dir, "spec.json"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte(`{"name":"lib-job","meta":null}`))
	f.Add([]byte(`{"meta":{"profile":"nope","scale":-1,"shards":-3,"tb":1}}`))
	f.Add([]byte(`{"meta":{"profile":"Citations","scale":1e-9,"noise":1e9,"error_rate":2,"seed":-9223372036854775808}}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		root := t.TempDir()
		if err := os.MkdirAll(filepath.Join(root, "job"), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(root, "job", "spec.json"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		store, err := NewStore(root)
		if err != nil {
			t.Fatal(err)
		}
		jl, err := store.Open("job")
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		defer jl.Close()
		rec, err := jl.ReadSpec()
		if err != nil || rec.Meta == nil {
			return
		}
		// Building generates the dataset, so only descriptions of small
		// tables are built: a fuzzer that finds "scale":1 has found nothing.
		if p, ok := datagen.ProfileByName(rec.Meta.Profile); ok {
			if rec.Meta.Scale <= 0 || datagen.Scaled(p, rec.Meta.Scale).SizeA+datagen.Scaled(p, rec.Meta.Scale).SizeB > 1500 {
				return
			}
		}
		spec, err := BuildSpec(*rec.Meta)
		if err != nil {
			return
		}
		if err := spec.normalize(); err != nil {
			t.Fatalf("a built spec does not normalize: %v", err)
		}
		if spec.Dataset == nil || spec.Crowd == nil || spec.Meta == nil || *spec.Meta != *rec.Meta {
			t.Fatalf("BuildSpec(%+v) returned an incomplete spec", *rec.Meta)
		}
	})
}

// FuzzSubmitMeta feeds arbitrary bytes to the POST /jobs handler's JSON
// decode and the range check BuildSpec makes first — the handler's path up
// to the build, no dataset built. Neither panics; a Meta both accept has an
// error rate in [0, 1] and no negative number, and survives the round trip
// through the spec record the journal stores it in, field for field.
func FuzzSubmitMeta(f *testing.F) {
	f.Add([]byte(`{"profile":"restaurants","scale":0.15,"seed":5}`))
	f.Add([]byte(`{"profile":"citations","scale":0.1,"seed":5,"tb":1,"shards":4,"shard_workers":2}`))
	f.Add([]byte(`{"profile":"restaurants","scale":0.05,"seed":1,"error_rate":3}`))
	f.Add([]byte(`{"profile":"products","error_rate":1,"budget":-1,"price":-0.01,"max_iterations":-7}`))
	f.Add([]byte(`{"profile":"x","noise":-0,"scale":1e308,"seed":-9223372036854775808}`))
	f.Add([]byte(`{"error_rate":0.05} trailing`))
	f.Add([]byte(`[1,2,3]`))
	f.Add([]byte(`{"scale":"1"}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var meta Meta
		if json.NewDecoder(bytes.NewReader(data)).Decode(&meta) != nil || meta.validate() != nil {
			return
		}
		if !(meta.ErrorRate >= 0 && meta.ErrorRate <= 1) {
			t.Fatalf("accepted error_rate %v", meta.ErrorRate)
		}
		for _, v := range []float64{meta.Scale, meta.Noise, meta.Budget, meta.Price,
			float64(meta.MaxIterations), float64(meta.TB), float64(meta.Shards), float64(meta.ShardWorkers)} {
			if !(v >= 0) {
				t.Fatalf("accepted a negative number: %+v", meta)
			}
		}
		buf, err := json.Marshal(specRecord{Name: "job", Meta: &meta})
		if err != nil {
			t.Fatalf("accepted %+v does not encode: %v", meta, err)
		}
		var rec specRecord
		if err := json.Unmarshal(buf, &rec); err != nil || rec.Meta == nil || *rec.Meta != meta {
			t.Fatalf("%+v does not survive the spec record %s: %v", meta, buf, err)
		}
		if err := rec.Meta.validate(); err != nil {
			t.Fatalf("%+v is refused after the spec record: %v", meta, err)
		}
	})
}

// FuzzForestLoad feeds arbitrary bytes to the model decoder behind the
// job directory's model_iterNN.json files. forest.Load must never panic;
// every model it accepts must re-Save to bytes that Load to an identical
// forest — every node array, span, table and config field — and a model it
// accepts under the job's feature names must score a matrix of that width
// without panicking. The corpus is seeded with the model files a real
// journaled job left behind, and with features beyond int32 that a decoder
// could wrap.
func FuzzForestLoad(f *testing.F) {
	dir, _ := seedJobDir(f, 0)
	models, _ := filepath.Glob(filepath.Join(dir, modelPrefix+"*.json"))
	if len(models) == 0 {
		f.Fatal("seed job left no model files")
	}
	var names []string
	for _, path := range models {
		buf, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		var head struct {
			FeatureNames []string `json:"feature_names"`
		}
		if err := json.Unmarshal(buf, &head); err != nil || len(head.FeatureNames) == 0 {
			f.Fatalf("seed model %s names no features (err %v)", path, err)
		}
		names = head.FeatureNames
		f.Add(buf)
	}
	f.Add([]byte(`{"trees":[]}`))
	f.Add([]byte(`{"feature_names":["a"],"trees":[{"nodes":[{"f":0,"t":0.5,"l":1,"r":1},{"f":-1,"l":-1,"r":-1}]}]}`))
	for _, feat := range []string{"4294967296", "2147483648"} {
		f.Add([]byte(`{"trees":[{"nodes":[{"f":` + feat + `,"l":1,"r":2},{"f":-1,"l":-1,"r":-1},{"f":-1,"l":-1,"r":-1}]}]}`))
	}

	// The fixed matrix: one row per vector, as wide as the job's
	// featurization, similarity-like values with the exact ends included.
	rng := rand.New(rand.NewSource(1))
	V := make([][]float64, 64)
	for i := range V {
		V[i] = make([]float64, len(names))
		for c := range V[i] {
			switch rng.Intn(8) {
			case 0:
				V[i][c] = 0
			case 1:
				V[i][c] = 1
			default:
				V[i][c] = rng.Float64()
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if g, err := forest.Load(bytes.NewReader(data), nil); err == nil {
			var buf bytes.Buffer
			if err := g.Save(&buf, nil); err != nil {
				t.Fatalf("re-save of a loaded model: %v", err)
			}
			h, err := forest.Load(bytes.NewReader(buf.Bytes()), nil)
			if err != nil {
				t.Fatalf("a loaded model's own re-save does not load: %v", err)
			}
			if !reflect.DeepEqual(g, h) {
				t.Fatalf("Save → Load changed the forest; re-saved as %s", buf.Bytes())
			}
		}
		if g, err := forest.Load(bytes.NewReader(data), names); err == nil {
			forest.NewScorer().ConfidencesInto(g, V, make([]float64, len(V)))
		}
	})
}
