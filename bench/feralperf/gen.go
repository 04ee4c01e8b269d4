package main

import (
	"fmt"
	"math/rand"
	"net/http"

	"feralcc/internal/workload"
)

// kind is what a generated request does; it fixes which HTTP statuses count
// as the expected outcome (see expected).
type kind uint8

const (
	createFresh kind = iota // POST /entries with a key nobody holds
	createDup               // POST /entries with a preloaded key: the feral validation must reject it
	readEntry               // GET /entries/{key} of a preloaded key
	createUser              // POST /users under a live department
	createDept              // POST /departments
	deleteDept              // DELETE /departments/{id}: the feral cascade
)

// request is one generated HTTP request plus what the correctness gate
// needs to judge its response.
type request struct {
	kind   kind
	method string
	path   string
	body   string
	want   string // readEntry: the preloaded value the response must carry
	dept   int64  // createUser, createDept, deleteDept: the department concerned
}

// expected reports whether status is an outcome the workload allows for r.
// Anything else (5xx, 503, 504, a transport error reported as status 0) is a
// failed request.
func (r *request) expected(status int) bool {
	switch r.kind {
	case createDup:
		return status == http.StatusUnprocessableEntity
	case createUser:
		// 422 only when a concurrent DELETE removed the department between
		// generation order and execution order.
		return status == http.StatusOK || status == http.StatusUnprocessableEntity
	case deleteDept:
		// 404 only when the department's own POST is still in flight.
		return status == http.StatusOK || status == http.StatusNotFound
	default:
		return status == http.StatusOK
	}
}

// sizes are the fixed counts of one block: rows preloaded before the clock
// starts, warm-up requests, measured requests. They never adapt to the
// machine, so table growth and work done per block are the same on every
// commit; --seconds only decides how many such blocks a run repeats.
type sizes struct {
	preload, warm, measured int
}

// spec is one workload: its application and schema, its block sizes at full
// scale and under -quick, and its request mix.
type spec struct {
	name    string
	indexed bool // the remedy index on key exists (uniq.*, entries.read)
	assoc   bool // the Appendix C.4 association app instead of the key-value one
	full    sizes
	quick   sizes
	gen     func(rng *rand.Rand, sz sizes) []request
}

const (
	kvModel   = "ValidatedKeyValue"
	kvTable   = "validated_key_values"
	userModel = "ValidatedUser"
	userTable = "validated_users"
	userFK    = "validated_department_id"
	deptModel = "ValidatedDepartment"
	deptTable = "validated_departments"

	// usersPerDept children are preloaded under every preloaded department,
	// so the first cascade is already a multi-row transaction.
	usersPerDept = 5
	// newDeptBase keeps generated department ids clear of preloaded ones.
	newDeptBase = 1_000_000
	// deleteLag is how many requests must separate a department's POST from
	// its DELETE, so that with C clients in flight the DELETE finds it.
	deleteLag = 64
)

// specs lists the workloads in the order BENCHMARK.json names them.
var specs = []*spec{
	{name: "uniq.feral", full: sizes{2000, 200, 1000}, quick: sizes{200, 20, 200}, gen: genUniq},
	{name: "uniq.indexed", indexed: true, full: sizes{2000, 500, 5000}, quick: sizes{200, 20, 200}, gen: genUniq},
	{name: "entries.read", indexed: true, full: sizes{10000, 2000, 20000}, quick: sizes{1000, 20, 200}, gen: genRead},
	{name: "assoc.mixed", assoc: true, full: sizes{200, 500, 4000}, quick: sizes{40, 20, 200}, gen: genAssoc},
}

func specByName(name string) *spec {
	for _, s := range specs {
		if s.name == name {
			return s
		}
	}
	return nil
}

func preKey(i int64) string   { return fmt.Sprintf("pre-%06d", i) }
func preValue(i int64) string { return fmt.Sprintf("pv-%06d", i) }

// generate builds the whole request sequence of one block — warm-up prefix
// then measured requests — from the seed alone, before any clock starts.
func generate(s *spec, seed int64, sz sizes) []request {
	return s.gen(rand.New(rand.NewSource(seed)), sz)
}

// genUniq is the Figure 2/3 request stream: validated creates, one in five
// on a key the table already holds.
func genUniq(rng *rand.Rand, sz sizes) []request {
	reqs := make([]request, sz.warm+sz.measured)
	for i := range reqs {
		r := request{kind: createFresh, method: http.MethodPost, path: "/entries"}
		key := fmt.Sprintf("new-%07d", i)
		if rng.Intn(5) == 0 {
			r.kind = createDup
			key = preKey(rng.Int63n(int64(sz.preload)))
		}
		r.body = fmt.Sprintf(`{"model":%q,"key":%q,"value":"v-%016x"}`, kvModel, key, rng.Uint64())
		reqs[i] = r
	}
	return reqs
}

// genRead draws YCSB-Zipfian keys over the preloaded rows.
func genRead(rng *rand.Rand, sz sizes) []request {
	zipf := workload.NewZipfian(int64(sz.preload), 0.99, rng)
	reqs := make([]request, sz.warm+sz.measured)
	for i := range reqs {
		k := zipf.Next()
		reqs[i] = request{
			kind:   readEntry,
			method: http.MethodGet,
			path:   "/entries/" + preKey(k) + "?model=" + kvModel,
			want:   preValue(k),
		}
	}
	return reqs
}

// genAssoc is the Appendix C.4 mix: 90% user creates under a department
// that is live in generation order, 5% department creates, 5% cascading
// department deletes. Each department is deleted at most once and never
// within deleteLag requests of its creation.
func genAssoc(rng *rand.Rand, sz sizes) []request {
	type dept struct {
		id   int64
		born int
	}
	live := make([]dept, sz.preload)
	for i := range live {
		live[i] = dept{id: int64(i + 1), born: -deleteLag}
	}
	reqs := make([]request, sz.warm+sz.measured)
	created := 0
	for i := range reqs {
		// live is ordered by birth, so the departments old enough to delete
		// are a prefix of it.
		old := 0
		for old < len(live) && i-live[old].born >= deleteLag {
			old++
		}
		switch p := rng.Intn(20); {
		case p == 0:
			created++
			id := int64(newDeptBase + created)
			live = append(live, dept{id: id, born: i})
			reqs[i] = request{
				kind: createDept, method: http.MethodPost, path: "/departments", dept: id,
				body: fmt.Sprintf(`{"model":%q,"id":%d,"name":"dept-%d"}`, deptModel, id, id),
			}
		case p == 1 && old > 0 && len(live) > 1:
			j := rng.Intn(old)
			id := live[j].id
			live = append(live[:j], live[j+1:]...)
			reqs[i] = request{
				kind: deleteDept, method: http.MethodDelete, dept: id,
				path: fmt.Sprintf("/departments/%d?model=%s", id, deptModel),
			}
		default:
			id := live[rng.Intn(len(live))].id
			reqs[i] = request{
				kind: createUser, method: http.MethodPost, path: "/users", dept: id,
				body: fmt.Sprintf(`{"model":%q,"department_id":%d,"fk_attr":%q}`, userModel, id, userFK),
			}
		}
	}
	return reqs
}
