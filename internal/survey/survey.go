// Package survey reproduces the paper's §3 literature study and Table 1:
// 465 papers published 2016-2021 at FAST, OSDI, SOSP, and MSST, of which
// 104 feature flash SSDs prominently, classified into four categories of
// ZNS impact.
//
// The authors did not release their corpus; only the aggregate counts in
// Table 1 are published. This package therefore carries a reconstructed
// corpus: the ~20 classified papers the text itself cites with enough
// context to place them (Synthetic == false), plus clearly-marked synthetic
// stand-in entries that bring each (venue, category) cell to the published
// count. The taxonomy pipeline — classify, aggregate, render — runs over
// this corpus and regenerates Table 1 exactly.
//
// One inconsistency in the source is handled by omission: the paper offers
// "Stash in a Flash" (OSDI '18) as its example of an Orthogonal paper, but
// Table 1 reports zero Orthogonal papers at OSDI. We leave it out rather
// than guess.
package survey

import (
	"fmt"
	"sort"
	"strings"
)

// Category is the ZNS-impact class from §3.
type Category int

const (
	// Simplified: the paper's main problem is solved or simplified by ZNS.
	Simplified Category = iota
	// Approach: the paper's approach to the problem may change with ZNS.
	Approach
	// Results: the results of the research or evaluation may change.
	Results
	// Orthogonal: the problem is orthogonal to ZNS.
	Orthogonal
	numCategories
)

// String implements fmt.Stringer using the paper's column headers.
func (c Category) String() string {
	switch c {
	case Simplified:
		return "Simpl"
	case Approach:
		return "Appr"
	case Results:
		return "Res"
	case Orthogonal:
		return "Orth"
	default:
		return fmt.Sprintf("Category(%d)", int(c))
	}
}

// Venue is one of the surveyed conferences.
type Venue string

// The surveyed venues.
const (
	FAST Venue = "FAST"
	OSDI Venue = "OSDI"
	SOSP Venue = "SOSP"
	MSST Venue = "MSST"
)

// Venues lists the surveyed venues in Table 1's row order.
func Venues() []Venue { return []Venue{FAST, OSDI, SOSP, MSST} }

// VenuePubCount reports the total publications per venue over the survey's
// five years (the #Pubs column).
func VenuePubCount(v Venue) int {
	switch v {
	case FAST:
		return 126
	case OSDI:
		return 164
	case SOSP:
		return 77
	case MSST:
		return 98
	default:
		return 0
	}
}

// Paper is one classified corpus entry.
type Paper struct {
	Key       string // citation-style key
	Title     string
	Venue     Venue
	Year      int
	Cat       Category
	Synthetic bool // stand-in entry matching published aggregate counts
}

// published per-cell counts from Table 1, indexed [venue][category].
var published = map[Venue][4]int{
	FAST: {9, 8, 23, 8},
	OSDI: {3, 0, 4, 0},
	SOSP: {2, 2, 2, 0},
	MSST: {10, 7, 16, 10},
}

// realPapers are the classified papers the text cites with enough context
// to place in a cell.
var realPapers = []Paper{
	{"yan17tinytail", "Tiny-tail flash: near-perfect elimination of garbage collection tail latencies in NAND SSDs", FAST, 2017, Simplified, false},
	{"chen16ordermerge", "OrderMergeDedup: Efficient, Failure-Consistent Deduplication on Flash", FAST, 2016, Simplified, false},
	{"liu18pen", "PEN: Design and Evaluation of Partial-Erase for 3D NAND-Based High Density SSDs", FAST, 2018, Simplified, false},
	{"zhang20parallelftl", "Scalable Parallel Flash Firmware for Many-core Architectures", FAST, 2020, Simplified, false},
	{"li18femu", "The CASE of FEMU: Cheap, Accurate, Scalable and Extensible Flash Emulator", FAST, 2018, Simplified, false},
	{"shen17didacache", "DIDACache: A Deep Integration of Device and Application for Flash Based Key-Value Caching", FAST, 2017, Approach, false},
	{"gunawi18failslow", "Fail-Slow at Scale: Evidence of Hardware Performance Faults in Large Production Systems", FAST, 2018, Results, false},
	{"schroeder16reliability", "Flash Reliability in Production: The Expected and the Unexpected", FAST, 2016, Results, false},
	{"maneas20ssdstudy", "A Study of SSD Reliability in Large Scale Enterprise Storage Deployments", FAST, 2020, Results, false},
	{"lu16wisckey", "WiscKey: Separating Keys from Values in SSD-Conscious Storage", FAST, 2016, Results, false},

	{"hao20linnos", "LinnOS: Predictability on Unpredictable Flash Storage with a Light Neural Network", OSDI, 2020, Simplified, false},
	{"berg20cachelib", "The CacheLib Caching Engine: Design and Experiences at Scale", OSDI, 2020, Results, false},

	{"zhou17lxssd", "LX-SSD: Enhancing the Lifespan of NAND Flash-based Memory via Recycling Invalid Pages", MSST, 2017, Simplified, false},
	{"lee16nvmcoop", "Reducing Write Amplification of Flash Storage through Cooperative Data Management with NVM", MSST, 2016, Simplified, false},
	{"li20bandwidthftl", "Maximizing Bandwidth Management FTL Based on Read and Write Asymmetry of Flash Memory", MSST, 2020, Simplified, false},
	{"shafaei17cleaning", "Near-Optimal Offline Cleaning for Flash-Based SSDs", MSST, 2017, Simplified, false},
	{"cui16latency", "Exploiting latency variation for access conflict reduction of NAND flash memory", MSST, 2016, Approach, false},
	{"han20lightkv", "LightKV: A Cross Media Key Value Store with Persistent Memory to Cut Long Tail Latency", MSST, 2020, Results, false},
}

// syntheticTopics provide varied, clearly-generated titles per category.
var syntheticTopics = [4][]string{
	Simplified: {
		"Mitigating Garbage Collection Interference in %s-class SSD Arrays",
		"Firmware-Level Write Amplification Control for %s Flash Devices",
		"Rethinking FTL Mapping Granularity for %s Workloads",
		"Reverse-Engineering Black-Box SSD Scheduling under %s Traffic",
	},
	Approach: {
		"A %s-Aware Storage Engine Design for Flash Arrays",
		"Co-Designing %s Software with Conventional SSD Internals",
	},
	Results: {
		"Performance Characterization of %s Systems on Flash SSDs",
		"An Empirical Study of %s Behavior in Flash-Backed Storage",
		"Benchmarking %s Pipelines on Commodity SSDs",
	},
	Orthogonal: {
		"Low-Level %s Techniques for NAND Flash Cells",
		"Error-Correction Advances for %s Flash Media",
	},
}

var syntheticDomains = []string{
	"Datacenter", "Key-Value", "Filesystem", "Virtualization", "Analytics",
	"Transactional", "Caching", "Archival", "Streaming", "Machine-Learning",
	"Graph-Processing", "Multi-Tenant", "Disaggregated", "Embedded",
	"Scientific", "Log-Structured", "Deduplication", "Encryption",
	"Compression", "Erasure-Coded", "Replicated", "Time-Series", "Mobile",
}

// Corpus returns the full 104-entry classified corpus, ordered by venue,
// category, then key.
func Corpus() []Paper {
	var out []Paper
	for _, v := range Venues() {
		for c := Simplified; c < numCategories; c++ {
			want := published[v][c]
			var cell []Paper
			for _, p := range realPapers {
				if p.Venue == v && p.Cat == c {
					cell = append(cell, p)
				}
			}
			if len(cell) > want {
				panic(fmt.Sprintf("survey: more real papers than published count for %s/%s", v, c))
			}
			for i := len(cell); i < want; i++ {
				topics := syntheticTopics[c]
				domain := syntheticDomains[(i*7+int(c)*3+len(v))%len(syntheticDomains)]
				title := fmt.Sprintf(topics[i%len(topics)], domain)
				year := 2016 + (i*5+int(c))%5
				cell = append(cell, Paper{
					Key:       fmt.Sprintf("synth-%s-%s-%02d", strings.ToLower(string(v)), strings.ToLower(c.String()), i),
					Title:     title,
					Venue:     v,
					Year:      year,
					Cat:       c,
					Synthetic: true,
				})
			}
			sort.Slice(cell, func(i, j int) bool { return cell[i].Key < cell[j].Key })
			out = append(out, cell...)
		}
	}
	return out
}

// Row is one venue's line of Table 1.
type Row struct {
	Venue  Venue
	Pubs   int
	Counts [4]int
}

// Table is the reproduced Table 1.
type Table struct {
	Rows  []Row
	Total Row
}

// Table1 computes the taxonomy table from the corpus.
func Table1() Table {
	return tabulate(Corpus())
}

// tabulate aggregates an arbitrary corpus — exposed via Table1 and reused
// by tests with mutated corpora.
func tabulate(corpus []Paper) Table {
	byVenue := map[Venue]int{}
	var t Table
	for i, v := range Venues() {
		t.Rows = append(t.Rows, Row{Venue: v, Pubs: VenuePubCount(v)})
		byVenue[v] = i
	}
	for _, p := range corpus {
		if i, ok := byVenue[p.Venue]; ok {
			t.Rows[i].Counts[p.Cat]++
		}
	}
	t.Total.Venue = "Total"
	for _, r := range t.Rows {
		t.Total.Pubs += r.Pubs
		for c := 0; c < 4; c++ {
			t.Total.Counts[c] += r.Counts[c]
		}
	}
	return t
}

// Classified reports the number of classified papers in the table.
func (t Table) Classified() int {
	n := 0
	for _, c := range t.Total.Counts {
		n += c
	}
	return n
}

// Shares reports the paper's headline percentages: the fraction of
// classified papers that are simplified/solved, affected (approach or
// results), and orthogonal.
func (t Table) Shares() (simplified, affected, orthogonal float64) {
	n := float64(t.Classified())
	if n == 0 {
		return 0, 0, 0
	}
	simplified = float64(t.Total.Counts[Simplified]) / n
	affected = float64(t.Total.Counts[Approach]+t.Total.Counts[Results]) / n
	orthogonal = float64(t.Total.Counts[Orthogonal]) / n
	return simplified, affected, orthogonal
}
