package batchexec

import (
	"math"
	"slices"

	"apollo/internal/encoding"
	"apollo/internal/sqltypes"
	"apollo/internal/vector"
)

// keyTable is the one hash-table core behind hash join, hash aggregation,
// DISTINCT aggregates, spill partitioning and exchange routing. It normalizes
// each row's key columns into fixed-width words and maps every distinct key
// to a dense int32 id (0, 1, 2, ... in insertion order) with open addressing
// over flat arrays, so inserting a key allocates nothing of its own.
//
// Normalization keeps the row engine's key equality (the exec package's
// canonical key encoding) exactly. A key of k columns is k value words
// followed by tag words holding two bits per column:
//   - Int64, Date and Bool values are their integer (tag int);
//   - a Float64 that is integral with |f| < 1e15 is that integer (tag int, so
//     2.0 equals 2); any other float is its IEEE bits (tag float);
//   - a string is an id interned by value (tag string). Dict-coded strings
//     resolve through a per-dictionary code memo — an array indexed by code,
//     or a map from code for a dictionary over memoDictLimit entries — so each
//     distinct code costs one intern lookup and no row is decoded, and the
//     coded and materialized
//     forms of a value share one id. A lookup that must not intern writes
//     noStr for a string the table has never seen, a word no stored key
//     holds;
//   - NULL is tag null over a zero word.
//
// Every row also gets a value hash that depends only on the key's values — a
// string contributes the FNV-1a hash of its bytes, never its id or code — so
// two tables, or a build and a probe side, hash equal keys alike whatever
// their representation. A table folds its columns in with one multiply each
// and takes a key's home slot from the product's high bits. A router
// (newRouter) never inserts: it folds the columns with FNV-1a instead and
// route partitions rows on the result, the one hash behind exchange routing
// and both spill partitioners.
type keyTable struct {
	ncols int
	width int  // value words + tag words per key
	fnv   bool // a router: rows hash with FNV-1a

	words  []uint64 // key of id i at [i*width, (i+1)*width)
	hashes []uint64 // value hash of id i
	slots  []uint64 // high 32 bits of the key's hash | id+1; 0 = empty
	mask   uint64   // len(slots)-1
	shift  uint     // 64 - log2(len(slots)): a hash's home slot is h>>shift

	strIDs   map[string]int32
	strs     []string // string id -> value
	strHash  []uint64 // string id -> hash of its bytes
	strBytes int64    // bytes held by the interned strings
	memos    map[*encoding.Dict][]codeMemo
	bigMemos map[*encoding.Dict]map[uint64]codeMemo

	// Rows normalized by the last load, column-major: word j of row lo+i's
	// key is rowWords[j][i].
	rowWords [][]uint64
	rowHash  []uint64
	colHash  []uint64 // one column's value hashes, folded into rowHash
}

// codeMemo caches one dictionary code's key word and hash. n is len(strs)+1
// when the entry was resolved, 0 before; a miss (noStr) stays valid only
// while no string has been interned since.
type codeMemo struct {
	word, hash uint64
	n          int
}

const (
	tagNull uint64 = iota
	tagInt
	tagFloat
	tagStr

	tagsPerWord = 32
	noStr       = math.MaxUint64

	// memoDictLimit is the largest dictionary that gets a dense code memo.
	memoDictLimit = 1 << 14
	// strEntryBytes is the cost of interning a string beyond its bytes: its
	// map entry, its slot in strs and its hash.
	strEntryBytes = 48

	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
	hashMul   = 0x9e3779b97f4a7c15
	nullHash  = 0x6a09e667f3bcc909
)

func newKeyTable(ncols int) *keyTable {
	width := ncols + (ncols+tagsPerWord-1)/tagsPerWord
	return &keyTable{
		ncols:    ncols,
		width:    width,
		rowWords: make([][]uint64, width),
		slots:    make([]uint64, 16),
		mask:     15,
		shift:    60,
	}
}

// newRouter returns a table for route: one that hashes rows with FNV-1a.
func newRouter(ncols int) *keyTable {
	t := newKeyTable(ncols)
	t.fnv = true
	return t
}

// load normalizes rows [lo, hi) of the key columns vecs[cols[0]],
// vecs[cols[1]], ... With intern false no string is added to the table, and
// find reports a row holding a string the table has never interned absent.
// Rows that will be inserted must be loaded with intern true.
func (t *keyTable) load(vecs []*vector.Vector, cols []int, lo, hi int, intern bool) {
	n := hi - lo
	for j := range t.rowWords {
		t.rowWords[j] = slices.Grow(t.rowWords[j][:0], n)[:n]
	}
	for _, tags := range t.rowWords[t.ncols:] {
		clear(tags)
	}
	t.rowHash = slices.Grow(t.rowHash[:0], n)[:n]
	for i := range t.rowHash {
		t.rowHash[i] = fnvOffset
	}
	hv := slices.Grow(t.colHash[:0], n)[:n]
	t.colHash = hv
	for c, col := range cols {
		v := vecs[col]
		words, tags := t.rowWords[c], t.rowWords[t.ncols+c/tagsPerWord]
		sh := 2 * uint(c%tagsPerWord)
		nulls := v.HasNulls()
		switch {
		case v.IsCoded() && len(v.DictVals) <= memoDictLimit:
			memo := t.memo(v)
			for i, code := range v.Codes[lo:hi] {
				if nulls && v.Nulls.Get(lo+i) {
					continue // a NULL row's code is unspecified
				}
				m := &memo[code]
				if !m.valid(len(t.strs), intern) {
					t.resolve(m, v.DictVals[code], intern)
				}
				words[i], hv[i] = m.word, m.hash
				tags[i] |= tagStr << sh
			}
		case v.IsCoded():
			memo := t.bigMemos[v.Dict]
			if memo == nil {
				if t.bigMemos == nil {
					t.bigMemos = make(map[*encoding.Dict]map[uint64]codeMemo)
				}
				memo = make(map[uint64]codeMemo)
				t.bigMemos[v.Dict] = memo
			}
			for i, code := range v.Codes[lo:hi] {
				if nulls && v.Nulls.Get(lo+i) {
					continue
				}
				m := memo[code]
				if !m.valid(len(t.strs), intern) {
					t.resolve(&m, v.DictVals[code], intern)
					memo[code] = m
				}
				words[i], hv[i] = m.word, m.hash
				tags[i] |= tagStr << sh
			}
		case v.Typ == sqltypes.String:
			for i, str := range v.Str[lo:hi] {
				if nulls && v.Nulls.Get(lo+i) {
					continue
				}
				words[i], hv[i] = t.str(str, intern)
				tags[i] |= tagStr << sh
			}
		case v.Typ == sqltypes.Float64:
			for i, f := range v.F64[lo:hi] {
				if f == math.Trunc(f) && math.Abs(f) < 1e15 {
					words[i] = uint64(int64(f))
					tags[i] |= tagInt << sh
				} else {
					words[i] = math.Float64bits(f)
					tags[i] |= tagFloat << sh
				}
			}
			copy(hv, words)
		default: // Int64, Date, Bool
			for i, x := range v.I64[lo:hi] {
				words[i] = uint64(x)
				tags[i] |= tagInt << sh
			}
			copy(hv, words)
		}
		if nulls {
			for i := range hv {
				if v.Nulls.Get(lo + i) {
					words[i] = 0
					tags[i] &^= 3 << sh // tagNull
					hv[i] = nullHash
				}
			}
		}
		if t.fnv {
			for i, x := range hv {
				t.rowHash[i] = fnvWord(t.rowHash[i], x)
			}
		} else {
			for i, x := range hv {
				t.rowHash[i] = (t.rowHash[i] ^ x) * hashMul
			}
		}
	}
}

// memo returns the code memo for v's dictionary, grown to cover v's codes.
func (t *keyTable) memo(v *vector.Vector) []codeMemo {
	m := t.memos[v.Dict]
	if len(m) < len(v.DictVals) {
		m = append(m, make([]codeMemo, len(v.DictVals)-len(m))...)
		if t.memos == nil {
			t.memos = make(map[*encoding.Dict][]codeMemo)
		}
		t.memos[v.Dict] = m
	}
	return m
}

// valid reports whether m holds a resolution a lookup may use in a table of
// nstrs interned strings: a hit always, a miss only while nothing has been
// interned since and the lookup does not intern.
func (m *codeMemo) valid(nstrs int, intern bool) bool {
	return m.n != 0 && (m.word != noStr || !intern && m.n == nstrs+1)
}

// resolve fills the memo entry m with string s's key word and hash.
func (t *keyTable) resolve(m *codeMemo, s string, intern bool) {
	m.word, m.hash = t.str(s, intern)
	m.n = len(t.strs) + 1
}

// str returns s's key word — its string id, or noStr when it is not
// interned and intern is false — and the hash of its bytes.
func (t *keyTable) str(s string, intern bool) (uint64, uint64) {
	if id, ok := t.strIDs[s]; ok {
		return uint64(id), t.strHash[id]
	}
	h := uint64(fnvOffset)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime
	}
	if !intern {
		return noStr, h
	}
	if t.strIDs == nil {
		t.strIDs = make(map[string]int32)
	}
	t.strIDs[s] = int32(len(t.strs))
	t.strs = append(t.strs, s)
	t.strHash = append(t.strHash, h)
	t.strBytes += int64(len(s)) + strEntryBytes
	return uint64(len(t.strs) - 1), h
}

// find returns the id of loaded row i's key, or -1 when the table does not
// hold it.
func (t *keyTable) find(i int) int32 {
	_, id := t.probe(i)
	return id
}

// insert returns the id of loaded row i's key, adding the key when it is new.
func (t *keyTable) insert(i int) (id int32, isNew bool) {
	s, id := t.probe(i)
	if id >= 0 {
		return id, false
	}
	h := t.rowHash[i]
	id = int32(len(t.hashes))
	t.slots[s] = h&^math.MaxUint32 | uint64(id+1)
	for _, words := range t.rowWords {
		t.words = append(t.words, words[i])
	}
	t.hashes = append(t.hashes, h)
	if 4*len(t.hashes) > len(t.slots) {
		t.grow()
	}
	return id, true
}

// grow doubles the slot array, keeping the load factor at most 1/4 so that
// most probes end at the home slot.
func (t *keyTable) grow() {
	t.slots = make([]uint64, 2*len(t.slots))
	t.mask = uint64(len(t.slots) - 1)
	t.shift--
	for id, h := range t.hashes {
		s := h >> t.shift
		for t.slots[s] != 0 {
			s = (s + 1) & t.mask
		}
		t.slots[s] = h&^math.MaxUint32 | uint64(id+1)
	}
}

// insertFrom adds key sid of src, a table over the same key columns, by
// value: its string ids are re-interned here and its value hash carries over.
// It replaces the loaded rows.
func (t *keyTable) insertFrom(src *keyTable, sid int32) (int32, bool) {
	key := src.words[int(sid)*src.width : int(sid+1)*src.width]
	for j, w := range key {
		if j < t.ncols && t.tag(key, j) == tagStr {
			w, _ = t.str(src.strs[w], true)
		}
		t.rowWords[j] = append(t.rowWords[j][:0], w)
	}
	t.rowHash = append(t.rowHash[:0], src.hashes[sid])
	return t.insert(0)
}

// probe walks loaded row i's linear-probe sequence, returning the slot and id
// of its key, or the empty slot that ends the sequence and id -1.
func (t *keyTable) probe(i int) (uint64, int32) {
	h := t.rowHash[i]
	hi := h &^ math.MaxUint32
	for s := h >> t.shift; ; s = (s + 1) & t.mask {
		e := t.slots[s]
		if e == 0 {
			return s, -1
		}
		if e&^math.MaxUint32 != hi {
			continue
		}
		id := int32(uint32(e)) - 1
		if t.equal(id, i) {
			return s, id
		}
	}
}

// equal reports whether key id equals loaded row i's key.
func (t *keyTable) equal(id int32, i int) bool {
	for j, w := range t.words[int(id)*t.width : int(id+1)*t.width] {
		if t.rowWords[j][i] != w {
			return false
		}
	}
	return true
}

func (t *keyTable) tag(key []uint64, c int) uint64 {
	return key[t.ncols+c/tagsPerWord] >> (2 * uint(c%tagsPerWord)) & 3
}

// value decodes column c of key id as a value of the column's type typ.
func (t *keyTable) value(id int32, c int, typ sqltypes.Type) sqltypes.Value {
	key := t.words[int(id)*t.width : int(id+1)*t.width]
	x := key[c]
	switch t.tag(key, c) {
	case tagNull:
		return sqltypes.NewNull(typ)
	case tagStr:
		return sqltypes.NewString(t.strs[x])
	case tagFloat:
		return sqltypes.NewFloat(math.Float64frombits(x))
	}
	if typ == sqltypes.Float64 {
		return sqltypes.NewFloat(float64(int64(x)))
	}
	return sqltypes.Value{Typ: typ, I: int64(x)}
}

// hasNull reports whether loaded row i has a NULL key column.
func (t *keyTable) hasNull(i int) bool {
	for c := 0; c < t.ncols; c++ {
		if t.rowWords[t.ncols+c/tagsPerWord][i]>>(2*uint(c%tagsPerWord))&3 == tagNull {
			return true
		}
	}
	return false
}

// route assigns rows [0, n) of the key columns to nParts partitions by value
// hash, appending each row's partition to dst[:0]; t must be a router. A row
// with a NULL key never matches, but outer joins still emit it, so it goes
// to partition 0.
func (t *keyTable) route(vecs []*vector.Vector, cols []int, n, nParts int, dst []int32) []int32 {
	dst = dst[:0]
	for lo := 0; lo < n; lo += vector.DefaultBatchSize {
		hi := min(lo+vector.DefaultBatchSize, n)
		t.load(vecs, cols, lo, hi, false)
		for i, h := range t.rowHash {
			p := int32(0)
			if !t.hasNull(i) {
				p = int32((h >> 33) % uint64(nParts))
			}
			dst = append(dst, p)
		}
	}
	return dst
}

// fnvWord folds the eight bytes of v into an FNV-1a accumulator.
func fnvWord(acc, v uint64) uint64 {
	for s := uint(0); s < 64; s += 8 {
		acc = (acc ^ (v>>s)&0xff) * fnvPrime
	}
	return acc
}
