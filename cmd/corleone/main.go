// Command corleone runs the hands-off entity matching pipeline on two CSV
// tables — the §3 "journalist" scenario. The user supplies the tables, a
// one-line matching instruction, four seed examples, and (since this build
// has no Mechanical Turk bridge) a gold-standard CSV that powers a
// simulated crowd with a configurable error rate.
//
// Usage:
//
//	corleone -a donorsA.csv -b donorsB.csv \
//	  -instruction "match if the same person" \
//	  -seeds "0:0:yes,5:3:yes,0:1:no,2:9:no" \
//	  -gold gold.csv -error 0.05 -budget 500 -out matches.csv
//
// The gold CSV has two integer columns (rowA, rowB), one true match per
// line. The seeds flag lists rowA:rowB:yes|no quadruples.
//
// With -crowd self, YOU are the crowd: each question is rendered at the
// terminal and answered with y/n — the fully hands-off, fully offline way
// for one person to match two lists (no gold file needed).
package main

import (
	"bufio"
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	corleone "github.com/corleone-em/corleone"
)

func main() {
	fileA := flag.String("a", "", "CSV file for table A (header row required)")
	fileB := flag.String("b", "", "CSV file for table B (header row required)")
	instruction := flag.String("instruction", "", "matching instruction shown to the crowd")
	seedsFlag := flag.String("seeds", "", "seed examples rowA:rowB:yes|no, comma separated (2 yes + 2 no)")
	gold := flag.String("gold", "", "gold standard CSV (rowA,rowB per line) for the simulated crowd")
	crowdKind := flag.String("crowd", "simulated", "crowd source: simulated | self (answer questions yourself)")
	errRate := flag.Float64("error", 0.05, "simulated crowd error rate")
	price := flag.Float64("price", 0.01, "price per crowd question in dollars")
	budget := flag.Float64("budget", 0, "stop after spending this many dollars (0 = no budget)")
	out := flag.String("out", "", "write matches to this CSV (default stdout)")
	seed := flag.Int64("seed", 1, "random seed")
	verbose := flag.Bool("v", false, "print pipeline progress")
	flag.Parse()

	if *fileA == "" || *fileB == "" || *seedsFlag == "" ||
		(*gold == "" && *crowdKind != "self") {
		flag.Usage()
		os.Exit(2)
	}
	if err := checkNumbers(*errRate, *price, *budget); err != nil {
		fmt.Fprintln(os.Stderr, "corleone:", err)
		os.Exit(2)
	}

	seeds, err := parseSeeds(*seedsFlag)
	check(err)
	fa, err := os.Open(*fileA)
	check(err)
	defer fa.Close()
	fb, err := os.Open(*fileB)
	check(err)
	defer fb.Close()

	ds, err := corleone.LoadDatasetCSV("user-task", fa, fb, nil, *instruction, seeds)
	check(err)

	cfg := corleone.DefaultConfig()
	cfg.PricePerQuestion = *price
	cfg.Budget = *budget
	cfg.Seed = *seed
	if *verbose || *crowdKind == "self" {
		cfg.Listener = func(e corleone.Event) {
			fmt.Fprintf(os.Stderr, "[%s] %s ($%.2f spent, %d pairs)\n",
				e.Phase, e.Detail, e.Cost, e.Pairs)
		}
	}

	var crowd corleone.Crowd
	if *crowdKind == "self" {
		crowd = &selfCrowd{ds: ds, in: bufio.NewScanner(os.Stdin)}
	} else {
		truth, err := loadGold(*gold)
		check(err)
		ds.Truth = truth
		if *errRate <= 0 {
			crowd = corleone.Oracle(truth)
		} else {
			crowd = corleone.NewSimulatedCrowd(truth, *errRate, *seed*37+5)
		}
	}

	res, err := corleone.Run(ds, crowd, cfg)
	check(err)

	fmt.Fprint(os.Stderr, res.Summary())

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		check(err)
		defer f.Close()
		w = f
	}
	cw := csv.NewWriter(w)
	check(cw.Write([]string{"rowA", "rowB"}))
	for _, m := range res.Matches {
		check(cw.Write([]string{strconv.Itoa(int(m.A)), strconv.Itoa(int(m.B))}))
	}
	cw.Flush()
	check(cw.Error())
}

// checkNumbers refuses the numeric flags POST /jobs refuses: an -error
// outside [0, 1] — above 1 the simulated crowd would flip every answer, and
// NaN would run as an oracle — or a negative -price or -budget, which would
// make spend negative or run as the default without a word. The comparisons
// are written so that NaN fails them too.
func checkNumbers(errRate, price, budget float64) error {
	if !(errRate >= 0 && errRate <= 1) {
		return fmt.Errorf("-error %v is outside [0, 1]", errRate)
	}
	for _, f := range []struct {
		name string
		v    float64
	}{{"price", price}, {"budget", budget}} {
		if !(f.v >= 0) {
			return fmt.Errorf("-%s %v is negative", f.name, f.v)
		}
	}
	return nil
}

// selfCrowd renders each question at the terminal and reads a y/n answer —
// the user acts as their own crowd of one.
type selfCrowd struct {
	ds *corleone.Dataset
	in *bufio.Scanner
	n  int
}

func (s *selfCrowd) Answer(p corleone.Pair) bool {
	s.n++
	fmt.Fprintf(os.Stderr, "\n--- question %d ---\n", s.n)
	fmt.Fprintf(os.Stderr, "%s\n", renderPair(s.ds, p))
	for {
		fmt.Fprint(os.Stderr, "match? [y/n] ")
		if !s.in.Scan() {
			return false // EOF: treat as "no"
		}
		switch strings.ToLower(strings.TrimSpace(s.in.Text())) {
		case "y", "yes":
			return true
		case "n", "no":
			return false
		}
	}
}

func renderPair(ds *corleone.Dataset, p corleone.Pair) string {
	var b strings.Builder
	if ds.Instruction != "" {
		fmt.Fprintf(&b, "(%s)\n", ds.Instruction)
	}
	for i, attr := range ds.A.Schema {
		fmt.Fprintf(&b, "  %-14s | %-34s | %s\n", attr.Name,
			ds.A.Rows[p.A][i], ds.B.Rows[p.B][i])
	}
	return b.String()
}

func parseSeeds(s string) ([]corleone.Labeled, error) {
	var out []corleone.Labeled
	for _, part := range strings.Split(s, ",") {
		fields := strings.Split(strings.TrimSpace(part), ":")
		if len(fields) != 3 {
			return nil, fmt.Errorf("seed %q: want rowA:rowB:yes|no", part)
		}
		a, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, fmt.Errorf("seed %q: %v", part, err)
		}
		b, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, fmt.Errorf("seed %q: %v", part, err)
		}
		var match bool
		switch strings.ToLower(fields[2]) {
		case "yes", "y", "true", "1":
			match = true
		case "no", "n", "false", "0":
			match = false
		default:
			return nil, fmt.Errorf("seed %q: label must be yes or no", part)
		}
		out = append(out, corleone.Labeled{Pair: corleone.P(a, b), Match: match})
	}
	return out, nil
}

func loadGold(path string) (*corleone.GroundTruth, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	cr := csv.NewReader(f)
	cr.FieldsPerRecord = 2
	var matches []corleone.Pair
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		a, err := strconv.Atoi(strings.TrimSpace(rec[0]))
		if err != nil {
			continue // tolerate a header line
		}
		b, err := strconv.Atoi(strings.TrimSpace(rec[1]))
		if err != nil {
			continue
		}
		matches = append(matches, corleone.P(a, b))
	}
	return corleone.NewGroundTruth(matches), nil
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "corleone:", err)
		os.Exit(1)
	}
}
