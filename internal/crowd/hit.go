package crowd

import (
	"fmt"
	"strings"

	"github.com/corleone-em/corleone/internal/record"
)

// RenderQuestion renders pair p of the dataset as the side-by-side table a
// worker would see on AMT, in plain text. Yes / No / Not sure are the answer
// options in the paper's UI; "Not sure" answers are re-solicited, so the
// Crowd interface models only Yes/No.
func RenderQuestion(ds *record.Dataset, p record.Pair) string {
	var b strings.Builder
	b.WriteString("Do these records match?\n")
	if ds.Instruction != "" {
		fmt.Fprintf(&b, "Instruction: %s\n", ds.Instruction)
	}
	wName := len("Attribute")
	w1 := len("Record 1")
	w2 := len("Record 2")
	rowA := ds.A.Rows[p.A]
	rowB := ds.B.Rows[p.B]
	for i, attr := range ds.A.Schema {
		if len(attr.Name) > wName {
			wName = len(attr.Name)
		}
		if len(rowA[i]) > w1 {
			w1 = len(rowA[i])
		}
		if len(rowB[i]) > w2 {
			w2 = len(rowB[i])
		}
	}
	sep := "+" + strings.Repeat("-", wName+2) + "+" + strings.Repeat("-", w1+2) + "+" + strings.Repeat("-", w2+2) + "+\n"
	row := func(c0, c1, c2 string) {
		fmt.Fprintf(&b, "| %-*s | %-*s | %-*s |\n", wName, c0, w1, c1, w2, c2)
	}
	b.WriteString(sep)
	row("Attribute", "Record 1", "Record 2")
	b.WriteString(sep)
	for i, attr := range ds.A.Schema {
		row(attr.Name, rowA[i], rowB[i])
	}
	b.WriteString(sep)
	b.WriteString("( ) Yes   ( ) No   ( ) Not sure\n")
	return b.String()
}
