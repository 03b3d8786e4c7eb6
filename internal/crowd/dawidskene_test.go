package crowd

import (
	"math/rand"
	"testing"

	"github.com/corleone-em/corleone/internal/datagen"
	"github.com/corleone-em/corleone/internal/record"
)

func panelTruth(n int, rng *rand.Rand) (*record.GroundTruth, []record.Pair) {
	var pairs []record.Pair
	var matches []record.Pair
	for i := 0; i < n; i++ {
		p := record.P(i, i)
		pairs = append(pairs, p)
		if rng.Intn(2) == 0 {
			matches = append(matches, p)
		}
	}
	return record.NewGroundTruth(matches), pairs
}

func TestPanelAnswerDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	truth, pairs := panelTruth(1, rng)
	_ = pairs
	p := UniformPanel(truth, 5, 0.8, 2)
	correct := 0
	const trials = 20000
	target := record.P(0, 0)
	want := truth.Match(target)
	for i := 0; i < trials; i++ {
		if p.Answer(target) == want {
			correct++
		}
	}
	rate := float64(correct) / trials
	if rate < 0.77 || rate > 0.83 {
		t.Errorf("accuracy %.3f, want ~0.8", rate)
	}
}

func TestPanelSpammerIsRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	truth, _ := panelTruth(1, rng)
	p := NewPanel(truth, []WorkerSpec{{Kind: Spammer}}, 3)
	yes := 0
	const trials = 20000
	for i := 0; i < trials; i++ {
		if p.Answer(record.P(0, 0)) {
			yes++
		}
	}
	rate := float64(yes) / trials
	if rate < 0.47 || rate > 0.53 {
		t.Errorf("spammer yes-rate %.3f, want ~0.5", rate)
	}
}

func TestPanelAdversarial(t *testing.T) {
	truth := record.NewGroundTruth([]record.Pair{record.P(0, 0)})
	p := NewPanel(truth, []WorkerSpec{{Kind: Adversarial, Accuracy: 1}}, 4)
	for i := 0; i < 50; i++ {
		if p.Answer(record.P(0, 0)) {
			t.Fatal("perfect adversary answered correctly")
		}
	}
}

func TestPanelEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewPanel(record.NewGroundTruth(nil), nil, 1)
}

func TestCollectVotesAndMajority(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	truth, pairs := panelTruth(100, rng)
	p := UniformPanel(truth, 10, 0.9, 6)
	votes := CollectVotes(p, pairs, 5)
	if len(votes) != 500 {
		t.Fatalf("votes = %d", len(votes))
	}
	labels := MajorityLabels(votes)
	wrong := 0
	for _, pair := range pairs {
		if labels[pair] != truth.Match(pair) {
			wrong++
		}
	}
	if wrong > 10 {
		t.Errorf("majority vote wrong on %d/100 with 90%% workers", wrong)
	}
}

func TestDawidSkeneRecoversLabelsAndWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	truth, pairs := panelTruth(300, rng)
	// 6 good workers, 3 spammers, 1 adversary.
	specs := []WorkerSpec{
		{Diligent, 0.9}, {Diligent, 0.9}, {Diligent, 0.85},
		{Diligent, 0.85}, {Diligent, 0.8}, {Diligent, 0.8},
		{Spammer, 0}, {Spammer, 0}, {Spammer, 0},
		{Adversarial, 0.9},
	}
	p := NewPanel(truth, specs, 8)
	votes := CollectVotes(p, pairs, 7)
	res := DawidSkene(votes, p.NumWorkers(), 100, 1e-7)

	wrongDS, wrongMaj := 0, 0
	maj := MajorityLabels(votes)
	for _, pair := range pairs {
		if res.Labels[pair] != truth.Match(pair) {
			wrongDS++
		}
		if maj[pair] != truth.Match(pair) {
			wrongMaj++
		}
	}
	if wrongDS > wrongMaj {
		t.Errorf("Dawid-Skene (%d wrong) should beat majority (%d wrong) on a spammy panel",
			wrongDS, wrongMaj)
	}
	// Worker quality: the adversary must rank last, a good worker first.
	rank := res.RankWorkersByQuality()
	if rank[len(rank)-1] != 9 {
		t.Errorf("adversary ranked %v, want last; ranking %v", rank[len(rank)-1], rank)
	}
	if rank[0] > 5 {
		t.Errorf("best-ranked worker %d is not a diligent one", rank[0])
	}
	// Spammer confusion parameters sit near (0.5, 0.5).
	for w := 6; w <= 8; w++ {
		if res.Sensitivity[w] < 0.3 || res.Sensitivity[w] > 0.7 ||
			res.Specificity[w] < 0.3 || res.Specificity[w] > 0.7 {
			t.Errorf("spammer %d confusion (%.2f, %.2f) not near (0.5, 0.5)",
				w, res.Sensitivity[w], res.Specificity[w])
		}
	}
	if res.Iterations == 0 {
		t.Error("no EM iterations recorded")
	}
}

func TestDawidSkeneEmptyVotes(t *testing.T) {
	res := DawidSkene(nil, 3, 10, 1e-6)
	if len(res.Labels) != 0 {
		t.Error("no votes should give no labels")
	}
}

func TestDawidSkenePosteriorRange(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	truth, pairs := panelTruth(50, rng)
	p := UniformPanel(truth, 4, 0.7, 10)
	votes := CollectVotes(p, pairs, 3)
	res := DawidSkene(votes, 4, 50, 1e-6)
	for pr, post := range res.Posterior {
		if post < 0 || post > 1 {
			t.Fatalf("posterior[%v] = %v", pr, post)
		}
	}
}

var sinkDawidSkene *DawidSkeneResult

// BenchmarkDawidSkene measures EM aggregation throughput.
func BenchmarkDawidSkene(b *testing.B) {
	ds := datagen.Generate(datagen.Scaled(datagen.RestaurantsPaper, 0.5))
	panel := MixedPanel(ds.Truth, 8, 0.85, 2, 47)
	votes := CollectVotes(panel, ds.Truth.Matches(), 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkDawidSkene = DawidSkene(votes, panel.NumWorkers(), 100, 1e-7)
	}
}
