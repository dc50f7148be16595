package obs

import (
	"fmt"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// A stats struct is the single declaration of its counters. Each numeric
// (or bool) field carries struct tags, read here in the style of
// encoding/json, and the three things done with a snapshot — export it,
// sum several, subtract two — all derive from the same walk:
//
//	metric:"<family>,<kind>[,max|,noagg]"  kind is counter or gauge; family
//	                                       "-" keeps the leaf out of /metrics
//	                                       but in Add and Sub
//	help:"<HELP text>"
//	label:"<key>=<value>"   on a leaf or a nested struct: constant label
//	label:"<key>"           on a slice: the element index
//	label:"<key>=<Field>"   on a slice of structs: that string field of the
//	                        element, which is also the merge key of Add/Sub
//	metric:"-"              on a struct, pointer or slice: skip it entirely
//
// Untagged structs are descended into; untagged leaves, strings and maps
// are ignored. Add sums every leaf (max keeps the larger, noagg leaves dst
// alone); Sub subtracts counters and keeps the later value of gauges.

type statField struct {
	index      int
	name, help string // metric family; name "" when the leaf is not exported
	kind       string // typeCounter or typeGauge; "" for a container
	agg        string // "", "max" or "noagg"
	lk, lv     string
	elem       *statPlan // plan of the struct a container holds, if any
	key        int       // slice of structs: index of the label/merge-key field, or -1
}

type statPlan struct{ fields []statField }

var statPlans sync.Map // reflect.Type -> *statPlan

func isNumeric(k reflect.Kind) bool {
	return k >= reflect.Int && k <= reflect.Float64 && k != reflect.Uintptr
}

// planFor parses t's tags once. A malformed tag is a programming error and
// panics, like registering one family under two types.
func planFor(t reflect.Type) *statPlan {
	if p, ok := statPlans.Load(t); ok {
		return p.(*statPlan)
	}
	p := &statPlan{}
	for i := 0; i < t.NumField(); i++ {
		sf := t.Field(i)
		metric, tagged := sf.Tag.Lookup("metric")
		if !sf.IsExported() || metric == "-" {
			continue
		}
		f := statField{index: i, help: sf.Tag.Get("help"), key: -1}
		f.lk, f.lv, _ = strings.Cut(sf.Tag.Get("label"), "=")
		et := sf.Type
		if et.Kind() == reflect.Pointer || et.Kind() == reflect.Slice {
			et = et.Elem()
		}
		switch {
		case et.Kind() == reflect.Struct:
			f.elem = planFor(et)
			if sf.Type.Kind() == reflect.Slice && f.lv != "" {
				kf, ok := et.FieldByName(f.lv)
				if !ok || kf.Type.Kind() != reflect.String {
					panic(fmt.Sprintf("obs: %s.%s: label field %q is not a string field of %s", t, sf.Name, f.lv, et))
				}
				f.key = kf.Index[0]
			}
		case tagged && (isNumeric(et.Kind()) || et.Kind() == reflect.Bool):
			parts := strings.Split(metric, ",")
			if len(parts) < 2 || len(parts) > 3 || (parts[1] != typeCounter && parts[1] != typeGauge) ||
				(len(parts) == 3 && parts[2] != "max" && parts[2] != "noagg") {
				panic(fmt.Sprintf("obs: %s.%s: bad metric tag %q", t, sf.Name, metric))
			}
			if parts[0] != "-" {
				f.name = parts[0]
			}
			f.kind = parts[1]
			if len(parts) == 3 {
				f.agg = parts[2]
			}
		default:
			continue
		}
		p.fields = append(p.fields, f)
	}
	statPlans.Store(t, p)
	return p
}

// families calls fn for every exported leaf reachable from p.
func (p *statPlan) families(fn func(name, help, kind string)) {
	for _, f := range p.fields {
		if f.elem != nil {
			f.elem.families(fn)
		} else if f.name != "" {
			fn(f.name, f.help, f.kind)
		}
	}
}

func leafValue(v reflect.Value) float64 {
	switch {
	case v.CanInt():
		return float64(v.Int())
	case v.CanUint():
		return float64(v.Uint())
	case v.CanFloat():
		return v.Float()
	case v.Bool(): // planFor admits only numeric and bool leaves
		return 1
	}
	return 0
}

// samples emits one (family, rendered labels, value) per exported leaf of
// the struct v. pairs is the label set inherited from the containers above.
func (p *statPlan) samples(v reflect.Value, pairs [][2]string, emit func(name, labels string, v float64)) {
	own := renderPairs(pairs) // shared by every plain leaf of this struct
	for i := range p.fields {
		f := &p.fields[i]
		fv := v.Field(f.index)
		ps, labels := pairs, own
		if f.lv != "" && fv.Kind() != reflect.Slice {
			ps = append(pairs[:len(pairs):len(pairs)], [2]string{f.lk, f.lv})
			labels = renderPairs(ps)
		}
		switch fv.Kind() {
		case reflect.Pointer:
			if !fv.IsNil() {
				f.elem.samples(fv.Elem(), ps, emit)
			}
		case reflect.Struct:
			f.elem.samples(fv, ps, emit)
		case reflect.Slice:
			if f.lk == "" || (f.elem == nil && f.name == "") {
				continue
			}
			for j := 0; j < fv.Len(); j++ {
				ev, lv := fv.Index(j), strconv.Itoa(j)
				if f.key >= 0 {
					lv = ev.Field(f.key).String()
				}
				eps := append(pairs[:len(pairs):len(pairs)], [2]string{f.lk, lv})
				if f.elem != nil {
					f.elem.samples(ev, eps, emit)
				} else {
					emit(f.name, renderPairs(eps), leafValue(ev))
				}
			}
		default:
			if f.name != "" {
				emit(f.name, labels, leafValue(fv))
			}
		}
	}
}

// Samples walks the tagged leaves of the stats struct v exactly as a scrape
// does, calling emit with each family name, rendered label suffix and value.
func Samples(v any, emit func(name, labels string, value float64)) {
	rv := reflect.ValueOf(v)
	planFor(rv.Type()).samples(rv, nil, emit)
}

// CollectStruct registers one family per exported leaf of T, so HELP and
// TYPE render even while no series exists, and makes every WriteText call
// snap exactly once and fan that one snapshot out to all of them: a scrape
// is a consistent cut, and it is the same struct the STATS frame marshals.
func CollectStruct[T any](r *Registry, snap func() T) {
	planFor(reflect.TypeOf((*T)(nil)).Elem()).families(func(name, help, kind string) { r.familyFor(name, help, kind) })
	r.mu.Lock()
	r.sources = append(r.sources, func(emit func(name, labels string, v float64)) { Samples(snap(), emit) })
	r.mu.Unlock()
}

// Add folds src into dst leaf by leaf: sums, except that a max leaf keeps
// the larger value and a noagg leaf keeps dst's. Slices of structs with a
// key field merge by key (an element new to dst is appended whole); any
// other slice is appended.
func Add[T any](dst *T, src T) {
	d := reflect.ValueOf(dst).Elem()
	planFor(d.Type()).fold(d, reflect.ValueOf(src), false)
}

// Sub returns the change from before to after: counters are subtracted,
// gauges keep after's value. Slice elements pair up by key field, else by
// position; an element with no partner in before is kept whole. Neither
// argument is modified.
func Sub[T any](after, before T) T {
	d := reflect.ValueOf(&after).Elem()
	planFor(d.Type()).fold(d, reflect.ValueOf(before), true)
	return after
}

// fold is the one traversal behind Add and Sub: it combines s into d.
// For Sub, d is a shallow copy of the caller's value, so pointees and
// slice backing arrays are detached before they are written.
func (p *statPlan) fold(d, s reflect.Value, sub bool) {
	for i := range p.fields {
		f := &p.fields[i]
		df, sf := d.Field(f.index), s.Field(f.index)
		switch df.Kind() {
		case reflect.Pointer:
			if sf.IsNil() || (sub && df.IsNil()) {
				continue
			}
			c := reflect.New(df.Type().Elem())
			if !df.IsNil() {
				c.Elem().Set(df.Elem())
			}
			df.Set(c)
			f.elem.fold(c.Elem(), sf.Elem(), sub)
		case reflect.Struct:
			f.elem.fold(df, sf, sub)
		case reflect.Slice:
			if sub {
				c := reflect.MakeSlice(df.Type(), df.Len(), df.Len())
				reflect.Copy(c, df)
				df.Set(c)
			}
			for j := 0; j < sf.Len(); j++ {
				k := -1 // index in d of s[j]'s partner
				if f.key >= 0 {
					key := sf.Index(j).Field(f.key).String()
					for n := 0; n < df.Len() && k < 0; n++ {
						if df.Index(n).Field(f.key).String() == key {
							k = n
						}
					}
				} else if sub && j < df.Len() {
					k = j
				}
				switch {
				case k < 0 && !sub:
					df.Set(reflect.Append(df, sf.Index(j)))
				case k < 0:
				case f.elem != nil:
					f.elem.fold(df.Index(k), sf.Index(j), sub)
				default:
					f.foldLeaf(df.Index(k), sf.Index(j), sub)
				}
			}
		default:
			f.foldLeaf(df, sf, sub)
		}
	}
}

func (f *statField) foldLeaf(d, s reflect.Value, sub bool) {
	sign := int64(1)
	switch {
	case sub:
		if f.kind != typeCounter {
			return // a gauge keeps the later value
		}
		sign = -1
	case f.agg == "noagg":
		return
	case f.agg == "max":
		if leafValue(s) > leafValue(d) {
			d.Set(s)
		}
		return
	}
	switch {
	case d.CanInt():
		d.SetInt(d.Int() + sign*s.Int())
	case d.CanUint():
		d.SetUint(d.Uint() + uint64(sign)*s.Uint()) // sign -1 wraps to a subtraction
	case d.CanFloat():
		d.SetFloat(d.Float() + float64(sign)*s.Float())
	}
}

// renderPairs renders label pairs as the exposition suffix {a="b",c="d"},
// keys sorted, values escaped; no pairs render "".
func renderPairs(pairs [][2]string) string {
	if len(pairs) == 0 {
		return ""
	}
	if !sort.SliceIsSorted(pairs, func(i, j int) bool { return pairs[i][0] < pairs[j][0] }) {
		pairs = append([][2]string(nil), pairs...)
		sort.Slice(pairs, func(i, j int) bool { return pairs[i][0] < pairs[j][0] })
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, kv := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[0])
		b.WriteString(`="`)
		b.WriteString(escapeLabel(kv[1]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}
