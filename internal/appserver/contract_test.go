package appserver

import (
	"io"
	"net/http"
	"strings"
	"testing"
)

// TestHTTPContract pins the front end's wire contract: for every route, the
// success status and the exact reply bytes, and the error statuses a client
// can provoke — a missing key, a wrong method, a malformed id, a duplicate.
func TestHTTPContract(t *testing.T) {
	call := func(t *testing.T, base, method, path, body string) (int, string) {
		t.Helper()
		req, err := http.NewRequest(method, base+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(b)
	}
	serve := func(t *testing.T, uniqueness bool) string {
		t.Helper()
		reg, err := AssociationModels()
		if uniqueness {
			reg, err = UniquenessModels()
		}
		if err != nil {
			t.Fatal(err)
		}
		_, pool := newStack(t, reg, 2)
		srv := NewServer(pool)
		if err := srv.Listen("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Close)
		return "http://" + srv.Addr()
	}
	type step struct {
		method, path, body string
		status             int
		reply              string // exact bytes; "" = status only (the 405 text)
	}
	check := func(t *testing.T, base string, steps []step) {
		t.Helper()
		for _, s := range steps {
			status, reply := call(t, base, s.method, s.path, s.body)
			if status != s.status {
				t.Errorf("%s %s = %d %q, want %d", s.method, s.path, status, reply, s.status)
				continue
			}
			if s.reply != "" && reply != s.reply {
				t.Errorf("%s %s replied %q, want %q", s.method, s.path, reply, s.reply)
			}
		}
	}

	t.Run("entries", func(t *testing.T) {
		check(t, serve(t, true), []step{
			{"POST", "/entries", `{"model":"ValidatedKeyValue","key":"a","value":"1"}`, 200, "{\"id\":1}\n"},
			{"POST", "/entries", `{"model":"ValidatedKeyValue","key":"b/c","value":"2"}`, 200, "{\"id\":2}\n"},
			{"GET", "/entries/a?model=ValidatedKeyValue", "", 200, "{\"key\":\"a\",\"value\":\"1\"}\n"},
			// A key is one path segment: a '/' in it travels escaped.
			{"GET", "/entries/b%2Fc?model=ValidatedKeyValue", "", 200, "{\"key\":\"b/c\",\"value\":\"2\"}\n"},
			{"GET", "/entries/missing?model=ValidatedKeyValue", "", 404,
				"{\"error\":\"orm: record not found: ValidatedKeyValue/missing\"}\n"},
			{"POST", "/entries", `{"model":"ValidatedKeyValue","key":"a","value":"3"}`, 422,
				"{\"error\":\"orm: validation failed for ValidatedKeyValue: key has already been taken\"}\n"},
			{"POST", "/entries", `{"model":`, 400, "unexpected EOF\n"},
			{"GET", "/entries", "", 405, ""},
			{"PUT", "/entries", "", 405, ""},
			{"POST", "/entries/a?model=ValidatedKeyValue", "", 405, ""},
			{"DELETE", "/entries/a?model=ValidatedKeyValue", "", 405, ""},
			{"GET", "/healthz", "", 200, "ok\n"},
		})
	})
	t.Run("associations", func(t *testing.T) {
		check(t, serve(t, false), []step{
			{"POST", "/departments", `{"model":"ValidatedDepartment","id":7,"name":"eng"}`, 200, "{\"status\":\"created\"}\n"},
			{"POST", "/users", `{"model":"ValidatedUser","department_id":7,"fk_attr":"validated_department_id"}`, 200, "{\"id\":1}\n"},
			{"POST", "/users", `{"model":"ValidatedUser","department_id":7,"fk_attr":"validated_department_id"}`, 200, "{\"id\":2}\n"},
			{"POST", "/users", `{"model":"ValidatedUser","department_id":99,"fk_attr":"validated_department_id"}`, 422,
				"{\"error\":\"orm: validation failed for ValidatedUser: department must exist\"}\n"},
			{"DELETE", "/departments/abc?model=ValidatedDepartment", "", 400, "bad id\n"},
			{"DELETE", "/departments/7?model=ValidatedDepartment", "", 200, "{\"status\":\"deleted\"}\n"},
			{"DELETE", "/departments/7?model=ValidatedDepartment", "", 404,
				"{\"error\":\"orm: record not found: ValidatedDepartment id=7\"}\n"},
			{"GET", "/users", "", 405, ""},
			{"DELETE", "/users", "", 405, ""},
			{"GET", "/departments", "", 405, ""},
			{"DELETE", "/departments", "", 405, ""},
			{"GET", "/departments/7?model=ValidatedDepartment", "", 405, ""},
			{"POST", "/departments/7?model=ValidatedDepartment", "", 405, ""},
		})
	})
}
