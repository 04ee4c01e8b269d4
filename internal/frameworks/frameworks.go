// Package frameworks reproduces the Section 6 survey: the validation
// semantics of seven ORM frameworks, encoded as profiles (does the framework
// wrap validations in a transaction? does a declared uniqueness or foreign
// key constraint reach the database?), and each profile's two feral races
// rendered as hunt workloads, so the deterministic hunt decides which
// frameworks admit duplicates and orphans at a given isolation level.
package frameworks

import (
	"fmt"
	"strings"

	"feralcc/internal/experiment"
)

// Profile captures one framework's integrity semantics as surveyed in
// Section 6.
type Profile struct {
	Name    string
	Version string
	// Language/stack, for the survey table.
	Stack string
	// ValidationsInTransaction: the framework wraps validation + save in a
	// database transaction (Rails, JPA); CakePHP and Laravel do not.
	ValidationsInTransaction bool
	// DeclaredUniqueBecomesConstraint: declaring uniqueness on a model
	// produces an in-database unique constraint (JPA, Django, Waterline).
	DeclaredUniqueBecomesConstraint bool
	// DeclaredFKBecomesConstraint: declaring an association produces an
	// in-database foreign key (Django, Waterline when supported).
	DeclaredFKBecomesConstraint bool
	// CustomValidationsInTransaction: user-defined validations run
	// transactionally (false for Django custom validators and Waterline).
	CustomValidationsInTransaction bool
	// Notes quotes the paper's findings.
	Notes string
}

// Survey returns the seven framework profiles of Section 6 (and Rails
// itself, the paper's main subject, for comparison).
func Survey() []Profile {
	return []Profile{
		{
			Name: "Rails", Version: "4.1", Stack: "Ruby",
			ValidationsInTransaction:       true,
			CustomValidationsInTransaction: true,
			Notes:                          "validations and associations feral by default; unique indexes and FKs require separate migrations",
		},
		{
			Name: "JPA", Version: "EE 7", Stack: "Java",
			ValidationsInTransaction:        true,
			DeclaredUniqueBecomesConstraint: true,
			CustomValidationsInTransaction:  true,
			Notes:                           "@Column(unique=true) reaches the schema; Bean Validation UDFs run at default isolation and are susceptible",
		},
		{
			Name: "Hibernate", Version: "4.3.7", Stack: "Java",
			ValidationsInTransaction:        true,
			DeclaredUniqueBecomesConstraint: true,
			DeclaredFKBecomesConstraint:     false,
			CustomValidationsInTransaction:  true,
			Notes:                           "declared FK adds a column but no database foreign key; associations may dangle",
		},
		{
			Name: "CakePHP", Version: "2.5.5", Stack: "PHP",
			ValidationsInTransaction: false,
			Notes:                    "validation checks not backed by a transaction; schema constraints are entirely manual",
		},
		{
			Name: "Laravel", Version: "4.2", Stack: "PHP",
			ValidationsInTransaction: false,
			Notes:                    "model-level validations 'database agnostic'; DB constraints must be specified manually",
		},
		{
			Name: "Django", Version: "1.7", Stack: "Python",
			ValidationsInTransaction:        true,
			DeclaredUniqueBecomesConstraint: true,
			DeclaredFKBecomesConstraint:     true,
			CustomValidationsInTransaction:  false,
			Notes:                           "unique and FK declarations are database-backed; custom validators are not wrapped in a transaction",
		},
		{
			Name: "Waterline", Version: "0.10", Stack: "Node.js",
			ValidationsInTransaction:        false,
			DeclaredUniqueBecomesConstraint: true,
			DeclaredFKBecomesConstraint:     true,
			CustomValidationsInTransaction:  false,
			Notes:                           `"TO-DO: This should all be wrapped in a transaction" — custom validations unprotected`,
		},
	}
}

// Races renders p's two feral races as hunt workloads, in the shapes of the
// hunt catalog's uniqueness and association workloads: "uniqueness" (two
// validate-then-insert saves of one email; duplicates break its invariant)
// and "association" (a child insert after a parent-existence check racing a
// parent delete after a no-children check; orphans break its invariant). A
// profile that wraps validations in a transaction runs each save as one
// transaction; one that does not runs every statement as its own
// (task autocommit). A declared uniqueness or association that becomes a
// database constraint adds a unique index or an ON DELETE CASCADE foreign
// key to the schema.
func Races(p Profile) []experiment.HuntWorkload {
	task, email, dept := "task", "email:string", "dept_id:int"
	if !p.ValidationsInTransaction {
		task = "task autocommit"
	}
	if p.DeclaredUniqueBecomesConstraint {
		email += ":unique"
	}
	if p.DeclaredFKBecomesConstraint {
		dept += ":ref=departments"
	}
	races := []struct{ name, source string }{
		{"uniqueness", fmt.Sprintf(`
table users id:int:pk %s
invariant unique users email
%[2]s
  insert-unless users email=dup@example.com
%[2]s
  insert-unless users email=dup@example.com`, email, task)},
		{"association", fmt.Sprintf(`
table departments id:int:pk
table employees id:int:pk %s
row departments
invariant no-orphans employees dept_id departments
%[2]s
  read departments 1 id
  insert employees dept_id=1
%[2]s
  absent employees dept_id=1
  delete departments 1`, dept, task)},
	}
	out := make([]experiment.HuntWorkload, len(races))
	for i, r := range races {
		w, err := experiment.ParseHuntWorkload(strings.NewReader(r.source), r.name)
		if err != nil {
			panic(fmt.Sprintf("frameworks: %s %s race: %v", p.Name, r.name, err))
		}
		out[i] = w
	}
	return out
}
