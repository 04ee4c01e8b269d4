package railsscan

import (
	"bufio"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"feralcc/internal/corpus"
	"feralcc/internal/iconfluence"
)

func TestScanSimpleModel(t *testing.T) {
	src := map[string]string{
		"app/models/user.rb": `class User < ActiveRecord::Base
  belongs_to :department
  has_many :posts, :dependent => :destroy
  validates :department, :presence => true
  validates_uniqueness_of :email
  validates :name, :length => { :maximum => 255 }
end
`,
	}
	c := Scan("test", src)
	if c.Models != 1 {
		t.Fatalf("models = %d", c.Models)
	}
	if c.Associations != 2 {
		t.Fatalf("associations = %d", c.Associations)
	}
	if c.Validations != 3 {
		t.Fatalf("validations = %d: %+v", c.Validations, c.Uses)
	}
	byKind := map[string]ValidationUse{}
	for _, u := range c.Uses {
		byKind[u.Validator] = u
	}
	if !byKind["validates_presence_of"].OnAssociation {
		t.Error("presence on belongs_to not flagged as association-guarding")
	}
	if byKind["validates_uniqueness_of"].Field != "email" {
		t.Error("uniqueness field wrong")
	}
	if byKind["validates_length_of"].Field != "name" {
		t.Error("length field wrong")
	}
}

func TestScanMultiFieldValidates(t *testing.T) {
	src := map[string]string{
		"app/models/w.rb": `class W < ActiveRecord::Base
  validates :a, :b, :presence => true, :uniqueness => true
  validates_presence_of :c, :d
end
`,
	}
	c := Scan("t", src)
	// 2 fields x 2 options + 2 fields = 6 validations, Rails semantics.
	if c.Validations != 6 {
		t.Fatalf("validations = %d: %+v", c.Validations, c.Uses)
	}
}

func TestScanPlainPresenceNotAssociation(t *testing.T) {
	src := map[string]string{
		"app/models/w.rb": `class W < ActiveRecord::Base
  belongs_to :owner
  validates_presence_of :title
end
`,
	}
	c := Scan("t", src)
	if c.Uses[0].OnAssociation {
		t.Error("plain presence flagged as association-guarding")
	}
}

func TestScanBelongsToDeclaredAfterValidation(t *testing.T) {
	// Association tracking must be two-pass: Rails models often declare
	// validations above associations.
	src := map[string]string{
		"app/models/w.rb": `class W < ActiveRecord::Base
  validates :owner, :presence => true
  belongs_to :owner
end
`,
	}
	c := Scan("t", src)
	if !c.Uses[0].OnAssociation {
		t.Error("late belongs_to not seen by presence classification")
	}
}

func TestScanCustomValidations(t *testing.T) {
	src := map[string]string{
		"app/models/line_item.rb": `class AvailabilityValidator < ActiveModel::Validator
  def validate(record)
    record.errors.add(:quantity, 'oops') unless StockItem.where(:sku => record.sku).first.count_on_hand >= record.quantity
  end
end
class LineItem < ActiveRecord::Base
  validates_with AvailabilityValidator
  validates_each :code do |record, attr, value|
    record.errors.add(attr, 'bad') unless value =~ /\A[0-9]+\z/
  end
end
`,
	}
	c := Scan("t", src)
	if c.Models != 1 {
		t.Fatalf("validator class counted as model: %d", c.Models)
	}
	if c.Validations != 2 {
		t.Fatalf("validations = %d: %+v", c.Validations, c.Uses)
	}
	var withUse, eachUse *ValidationUse
	for i := range c.Uses {
		switch c.Uses[i].Validator {
		case "validates_with":
			withUse = &c.Uses[i]
		case "validates_each":
			eachUse = &c.Uses[i]
		}
	}
	if withUse == nil || !withUse.Custom || !withUse.ReadsDatabase {
		t.Fatalf("validates_with misparsed: %+v", withUse)
	}
	if eachUse == nil || !eachUse.Custom || eachUse.ReadsDatabase {
		t.Fatalf("validates_each misparsed: %+v", eachUse)
	}
}

func TestScanTransactionsAndLocks(t *testing.T) {
	src := map[string]string{
		"app/controllers/orders_controller.rb": `class OrdersController < ApplicationController
  def cancel
    Order.transaction do
      @order = Order.lock.find(params[:id])
      @order.save!
    end
  end
  def adjust
    @item.with_lock do
      @item.save!
    end
  end
end
`,
		"app/models/order.rb": `class Order < ActiveRecord::Base
  self.locking_column = :lock_version
end
`,
	}
	c := Scan("t", src)
	if c.Transactions != 1 {
		t.Fatalf("transactions = %d", c.Transactions)
	}
	if c.PessimisticLocks != 2 {
		t.Fatalf("plocks = %d", c.PessimisticLocks)
	}
	if c.OptimisticLocks != 1 {
		t.Fatalf("olocks = %d", c.OptimisticLocks)
	}
	if c.Models != 1 {
		t.Fatalf("models = %d (controller miscounted?)", c.Models)
	}
}

func TestScanCustomBaseClass(t *testing.T) {
	// Appendix A: some projects extend ActiveRecord::Base with their own
	// base class.
	src := map[string]string{
		"app/models/w.rb": `class W < MyRecord::Base
end
`,
		"app/models/v.rb": `class V < ApplicationRecord
end
`,
	}
	c := Scan("t", src)
	if c.Models != 2 {
		t.Fatalf("models = %d, want 2", c.Models)
	}
}

// The pipeline check: scanning the synthesized corpus must reproduce the
// published Table 2 census exactly, and the I-confluence report must land on
// the paper's percentages.
func TestScanCorpusReproducesTable2(t *testing.T) {
	c := corpus.Generate(2015)
	var all []*Counts
	for i, app := range c.Apps {
		counts := Scan(app.Stats.Name, app.Render())
		want := corpus.Table2[i]
		if counts.Models != want.Models {
			t.Errorf("%s models = %d, want %d", want.Name, counts.Models, want.Models)
		}
		if counts.Validations != want.Validations {
			t.Errorf("%s validations = %d, want %d", want.Name, counts.Validations, want.Validations)
		}
		if counts.Associations != want.Associations {
			t.Errorf("%s associations = %d, want %d", want.Name, counts.Associations, want.Associations)
		}
		if counts.Transactions != want.Transactions {
			t.Errorf("%s transactions = %d, want %d", want.Name, counts.Transactions, want.Transactions)
		}
		if counts.PessimisticLocks != want.PessimisticLocks {
			t.Errorf("%s plocks = %d, want %d", want.Name, counts.PessimisticLocks, want.PessimisticLocks)
		}
		if counts.OptimisticLocks != want.OptimisticLocks {
			t.Errorf("%s olocks = %d, want %d", want.Name, counts.OptimisticLocks, want.OptimisticLocks)
		}
		all = append(all, counts)
	}

	rep := iconfluence.Analyze(MergeInvariants(all))
	if rep.TotalBuiltIn != 3445 || rep.TotalCustom != 60 {
		t.Fatalf("built-in/custom = %d/%d, want 3445/60", rep.TotalBuiltIn, rep.TotalCustom)
	}
	if math.Abs(rep.SafeUnderInsertion-0.869) > 0.002 {
		t.Errorf("safe under insertion = %.4f, want 0.869 (Section 4.2)", rep.SafeUnderInsertion)
	}
	if math.Abs(rep.SafeUnderDeletion-0.366) > 0.002 {
		t.Errorf("safe under deletion = %.4f, want 0.366 (Section 4.2)", rep.SafeUnderDeletion)
	}
	if math.Abs(rep.UniquenessShare-0.127) > 0.002 {
		t.Errorf("uniqueness share = %.4f, want 0.127 (Section 5.1)", rep.UniquenessShare)
	}
	if rep.CustomSafe != 42 || rep.CustomUnsafe != 18 {
		t.Errorf("custom split = %d/%d, want 42/18 (Section 4.3)", rep.CustomSafe, rep.CustomUnsafe)
	}
	// Table 1's named rows.
	wantRows := map[string]int{
		"validates_presence_of":     1762,
		"validates_uniqueness_of":   440,
		"validates_length_of":       438,
		"validates_inclusion_of":    201,
		"validates_numericality_of": 133,
		"validates_associated":      39,
		"validates_email":           34,
		"validates_confirmation_of": 19,
		"Other":                     321,
	}
	for _, row := range rep.Rows {
		if want, ok := wantRows[row.Validator]; ok && row.Occurrences != want {
			t.Errorf("Table 1 row %s = %d, want %d", row.Validator, row.Occurrences, want)
		}
	}
}

func TestScanDirAndCorpusDir(t *testing.T) {
	dir := t.TempDir()
	c := corpus.Generate(2015)
	// Write the two smallest apps to disk and scan them back.
	small := []*corpus.App{c.Apps[66], c.Apps[65]} // Obtvse, Carter
	for _, app := range small {
		for path, content := range app.Render() {
			full := filepath.Join(dir, path)
			if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(full, []byte(content), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	counts, err := ScanCorpusDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(counts) != 2 {
		t.Fatalf("scanned %d apps", len(counts))
	}
	total := 0
	for _, ct := range counts {
		total += ct.Models
	}
	if total != small[0].Stats.Models+small[1].Stats.Models {
		t.Fatalf("disk scan model total = %d", total)
	}
	if _, err := ScanCorpusDir(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("missing dir should error")
	}
}

func TestBodyReadsDatabase(t *testing.T) {
	cases := map[string]bool{
		"StockItem.where(:sku => 1)":    true,
		"Setting.find_by(:name => 'x')": true,
		"Post.count >= 5":               true,
		"value =~ /[0-9]+/":             false,
		"record.errors.add(:x, 'bad')":  false,
		"local_var.where(:x => 1)":      false,
		"record.items.count":            false,
		"Config.first.max_upload":       true,
	}
	for line, want := range cases {
		if got := bodyReadsDatabase(line); got != want {
			t.Errorf("bodyReadsDatabase(%q) = %v, want %v", line, got, want)
		}
	}
}

// TestScanSurvivesLongLine: a line longer than any fixed scan buffer (here
// over 1 MiB, a minified asset or a long string literal) must not cut the
// rest of its file from the scan.
func TestScanSurvivesLongLine(t *testing.T) {
	src := map[string]string{
		"app/models/user.rb": "# " + strings.Repeat("x", 1<<20+1) + "\r\n" +
			"class User < ActiveRecord::Base\r\n" +
			"  validates_uniqueness_of :email\r\n" +
			"end\r\n",
	}
	c := Scan("test", src)
	if c.Models != 1 || c.Validations != 1 {
		t.Fatalf("models = %d, validations = %d, want 1 and 1", c.Models, c.Validations)
	}
}

// TestReadLinesMatchesScanLines: readLines splits exactly as
// bufio.ScanLines does on lines that fit its buffer.
func TestReadLinesMatchesScanLines(t *testing.T) {
	for _, content := range []string{
		"", "\n", "a", "a\n", "a\n\n", "a\r\nb", "a\r\nb\r\n", "\r", "a\rb\n", "\n\na\n",
	} {
		var want []string
		sc := bufio.NewScanner(strings.NewReader(content))
		for sc.Scan() {
			want = append(want, sc.Text())
		}
		if got := readLines(content); !slices.Equal(got, want) {
			t.Errorf("readLines(%q) = %q, want %q", content, got, want)
		}
	}
}
