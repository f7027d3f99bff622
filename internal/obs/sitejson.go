package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// siteJSON is the machine-readable form of one check site, flattened for
// stable marshalling. Cost is exported in nanoseconds so the file has no
// locale- or formatting-dependent fields.
type siteJSON struct {
	Tool   string `json:"tool"`
	Func   string `json:"func"`
	PC     int    `json:"pc"`
	Fires  int64  `json:"fires"`
	Bytes  int64  `json:"bytes"`
	CostNS int64  `json:"cost_ns"`
}

// profileJSON is the -profile-json file schema: the full site table (hottest
// first) plus the attribution total.
type profileJSON struct {
	TotalFires int64      `json:"total_fires"`
	Sites      []siteJSON `json:"sites"`
}

// WriteJSON writes the full site table as JSON, hottest sites first. The
// file is the input to a later -profile-diff run, which is how the §II.F
// ablations are measured: profile once with a pass disabled, once with it
// enabled, and diff to see which site tables the pass emptied.
func (p *SiteProfiler) WriteJSON(w io.Writer) error {
	sites := p.Sites()
	out := profileJSON{Sites: make([]siteJSON, 0, len(sites))}
	for _, s := range sites {
		out.TotalFires += s.Fires
		out.Sites = append(out.Sites, siteJSON{
			Tool: s.Key.Tool, Func: s.Key.Func, PC: s.Key.PC,
			Fires: s.Fires, Bytes: s.Bytes, CostNS: s.Cost.Nanoseconds(),
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// LoadSitesFile reads a site profile previously written by WriteJSON.
func LoadSitesFile(path string) ([]SiteStat, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var in profileJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return nil, fmt.Errorf("obs: parse site profile %s: %w", path, err)
	}
	stats := make([]SiteStat, 0, len(in.Sites))
	for _, s := range in.Sites {
		stats = append(stats, SiteStat{
			Key:   SiteKey{Tool: s.Tool, Func: s.Func, PC: s.PC},
			Fires: s.Fires, Bytes: s.Bytes, Cost: time.Duration(s.CostNS),
		})
	}
	return stats, nil
}

// FormatSiteDiff writes a per-site comparison of a baseline profile against
// the current one: fires and bytes deltas per site, with sites the current
// run no longer fires marked "gone" and newly appearing sites marked "new".
// Rows are sorted by baseline fires descending, so the hot sites a check
// optimization emptied lead the table. The footer totals both profiles.
func FormatSiteDiff(w io.Writer, baseline, current []SiteStat) {
	type row struct {
		key       SiteKey
		base, cur *SiteStat
	}
	idx := make(map[SiteKey]*row, len(baseline)+len(current))
	order := make([]*row, 0, len(baseline)+len(current))
	add := func(s SiteStat, isBase bool) {
		r, ok := idx[s.Key]
		if !ok {
			r = &row{key: s.Key}
			idx[s.Key] = r
			order = append(order, r)
		}
		c := s
		if isBase {
			r.base = &c
		} else {
			r.cur = &c
		}
	}
	for _, s := range baseline {
		add(s, true)
	}
	for _, s := range current {
		add(s, false)
	}
	sort.Slice(order, func(i, j int) bool {
		bi, bj := int64(0), int64(0)
		if order[i].base != nil {
			bi = order[i].base.Fires
		}
		if order[j].base != nil {
			bj = order[j].base.Fires
		}
		if bi != bj {
			return bi > bj
		}
		ki, kj := order[i].key, order[j].key
		if ki.Tool != kj.Tool {
			return ki.Tool < kj.Tool
		}
		if ki.Func != kj.Func {
			return ki.Func < kj.Func
		}
		return ki.PC < kj.PC
	})

	fmt.Fprintf(w, "%-12s %-20s %6s %12s %12s %12s %8s\n",
		"TOOL", "FUNC", "PC", "BASE FIRES", "CUR FIRES", "ΔFIRES", "STATUS")
	var baseFires, curFires int64
	var gone, fresh int
	for _, r := range order {
		var bf, cf int64
		if r.base != nil {
			bf = r.base.Fires
		}
		if r.cur != nil {
			cf = r.cur.Fires
		}
		baseFires += bf
		curFires += cf
		status := ""
		switch {
		case r.cur == nil:
			status, gone = "gone", gone+1
		case r.base == nil:
			status, fresh = "new", fresh+1
		}
		fmt.Fprintf(w, "%-12s %-20s %6d %12d %12d %+12d %8s\n",
			r.key.Tool, r.key.Func, r.key.PC, bf, cf, cf-bf, status)
	}
	fmt.Fprintf(w, "baseline %d sites / %d fires -> current %d sites / %d fires (%+d fires, %d sites emptied, %d new)\n",
		len(baseline), baseFires, len(current), curFires, curFires-baseFires, gone, fresh)
}
