package appserver

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"time"

	"feralcc/internal/db"
	"feralcc/internal/orm"
	"feralcc/internal/storage"
)

// Server is the HTTP front end: it accepts experiment requests and forwards
// each to a pooled worker, queueing when every worker is busy (the Nginx →
// Unicorn handoff).
type Server struct {
	pool *Pool
	http *http.Server
	ln   net.Listener
}

// NewServer builds the front end over a worker pool, routing the two
// experiment applications' requests (each handler's body struct is its JSON
// contract). The mux answers a known path with the wrong method 405.
func NewServer(pool *Pool) *Server {
	s := &Server{pool: pool}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /entries", s.createEntry)
	mux.HandleFunc("GET /entries/{key}", s.readEntry)
	mux.HandleFunc("POST /users", s.createUser)
	mux.HandleFunc("POST /departments", s.createDepartment)
	mux.HandleFunc("DELETE /departments/{id}", s.deleteDepartment)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	s.http = &http.Server{Handler: mux}
	return s
}

// Listen binds the server to addr (use "127.0.0.1:0" for an ephemeral port).
func (s *Server) Listen(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.ln = ln
	go s.http.Serve(ln)
	return nil
}

// Addr returns the bound address.
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close shuts the listener down.
func (s *Server) Close() { s.http.Close() }

// respond writes reply as JSON, or maps err onto an HTTP status the way a
// Rails app would: validation failures are 422, conflicts/serialization
// 409, a full worker pool or an overloaded database 503 (overload responses
// carry a Retry-After header with the backoff hint, rounded up to whole
// seconds), a spent request deadline 504, the rest 500.
func respond(w http.ResponseWriter, reply any, err error) {
	if err != nil {
		status := http.StatusInternalServerError
		switch {
		case errors.Is(err, orm.ErrRecordInvalid):
			status = http.StatusUnprocessableEntity
		case errors.Is(err, storage.ErrUniqueViolation),
			errors.Is(err, storage.ErrForeignKeyViolation),
			errors.Is(err, storage.ErrSerialization),
			errors.Is(err, orm.ErrStaleObject):
			status = http.StatusConflict
		case errors.Is(err, orm.ErrRecordNotFound):
			status = http.StatusNotFound
		case errors.Is(err, storage.ErrOverloaded):
			status = http.StatusServiceUnavailable
			secs := int64(1)
			if hint, ok := db.RetryAfter(err); ok && hint > 0 {
				secs = int64((hint + time.Second - 1) / time.Second)
			}
			w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
		case errors.Is(err, ErrPoolSaturated):
			status = http.StatusServiceUnavailable
		case errors.Is(err, storage.ErrStmtDeadline),
			errors.Is(err, context.DeadlineExceeded):
			status = http.StatusGatewayTimeout
		}
		w.WriteHeader(status)
		reply = map[string]string{"error": err.Error()}
	}
	_ = json.NewEncoder(w).Encode(reply)
}

// serve is the request path every worker-backed handler shares: decode the
// JSON request body into body (nil for none; one that does not parse is a
// 400), run fn on a worker, and reply with its result or its mapped error.
func (s *Server) serve(w http.ResponseWriter, r *http.Request, body any, fn func(*Worker) (any, error)) {
	if body != nil {
		if err := json.NewDecoder(r.Body).Decode(body); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
	}
	var reply any
	err := s.pool.DoContext(r.Context(), func(wk *Worker) (err error) {
		reply, err = fn(wk)
		return err
	})
	respond(w, reply, err)
}

// created is the reply to a create: the new record's id.
func created(rec *orm.Record, err error) (any, error) {
	if err != nil {
		return nil, err
	}
	return map[string]int64{"id": rec.ID()}, nil
}

func (s *Server) createEntry(w http.ResponseWriter, r *http.Request) {
	var body struct {
		Model string `json:"model"`
		Key   string `json:"key"`
		Value string `json:"value"`
	}
	s.serve(w, r, &body, func(wk *Worker) (any, error) {
		return created(wk.Session.Create(body.Model, map[string]storage.Value{
			"key":   storage.Str(body.Key),
			"value": storage.Str(body.Value),
		}))
	})
}

// readEntry serves GET /entries/{key}?model=..., the stack's only read.
func (s *Server) readEntry(w http.ResponseWriter, r *http.Request) {
	key, model := r.PathValue("key"), r.URL.Query().Get("model")
	s.serve(w, r, nil, func(wk *Worker) (any, error) {
		recs, err := wk.Session.Where(model, "key", storage.Str(key))
		if err != nil {
			return nil, err
		}
		if len(recs) == 0 {
			return nil, fmt.Errorf("%w: %s/%s", orm.ErrRecordNotFound, model, key)
		}
		return map[string]string{"key": key, "value": recs[0].GetString("value")}, nil
	})
}

func (s *Server) createUser(w http.ResponseWriter, r *http.Request) {
	var body struct {
		Model        string `json:"model"`
		DepartmentID int64  `json:"department_id"`
		FKAttr       string `json:"fk_attr"`
	}
	s.serve(w, r, &body, func(wk *Worker) (any, error) {
		return created(wk.Session.Create(body.Model, map[string]storage.Value{
			body.FKAttr: storage.Int(body.DepartmentID),
		}))
	})
}

func (s *Server) createDepartment(w http.ResponseWriter, r *http.Request) {
	var body struct {
		Model string `json:"model"`
		ID    int64  `json:"id"`
		Name  string `json:"name"`
	}
	s.serve(w, r, &body, func(wk *Worker) (any, error) {
		attrs := map[string]storage.Value{"name": storage.Str(body.Name)}
		if body.ID > 0 {
			attrs["id"] = storage.Int(body.ID)
		}
		_, err := wk.Session.Create(body.Model, attrs)
		return map[string]string{"status": "created"}, err
	})
}

func (s *Server) deleteDepartment(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseInt(r.PathValue("id"), 10, 64)
	if err != nil {
		http.Error(w, "bad id", http.StatusBadRequest)
		return
	}
	model := r.URL.Query().Get("model")
	s.serve(w, r, nil, func(wk *Worker) (any, error) {
		rec, err := wk.Session.Find(model, id)
		if err == nil {
			err = wk.Session.Destroy(rec)
		}
		return map[string]string{"status": "deleted"}, err
	})
}
