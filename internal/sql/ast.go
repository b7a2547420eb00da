package sql

import (
	"time"

	"repro/internal/types"
)

// Expr is a SQL expression.
type Expr interface{ isExpr() }

// Lit is a literal value. In a statement parsed for its shape (Cache), a
// literal that is a parameter has its number from 1 in Param and no Val:
// each execution supplies its value.
type Lit struct {
	Val   types.Value
	Param int32
}

// Col is a (possibly qualified) column reference.
type Col struct{ Table, Name string }

// Var is a host variable reference @name.
type Var struct{ Name string }

// Binary is a binary operation: =, <>, <, <=, >, >=, +, -, AND, OR.
type Binary struct {
	Op   string
	L, R Expr
}

// InSubquery is "(exprs) IN (SELECT ...)", a top-level AND conjunct of a
// WHERE clause. It compiles to the subquery's body atoms plus equalities
// between exprs and the subquery's select list: a semi-join in classical
// statements, variable bindings in entangled SELECTs.
type InSubquery struct {
	Exprs []Expr
	Sub   *SelectStmt
}

// InAnswer is "(exprs) IN ANSWER Name" — a postcondition in an entangled
// SELECT.
type InAnswer struct {
	Exprs  []Expr
	Answer string
}

func (*Lit) isExpr()        {}
func (*Col) isExpr()        {}
func (*Var) isExpr()        {}
func (*Binary) isExpr()     {}
func (*InSubquery) isExpr() {}
func (*InAnswer) isExpr()   {}

// SelectItem is one projected expression, optionally aliased to a column
// name or bound to a host variable (AS @var).
type SelectItem struct {
	Expr    Expr
	Alias   string // AS name
	BindVar string // AS @var (entangled host-variable binding)
	Star    bool   // SELECT *
}

// TableRef is one FROM entry with an optional alias.
type TableRef struct {
	Name  string
	Alias string
}

// Stmt is a parsed statement.
type Stmt interface{ isStmt() }

// CreateTableStmt: CREATE TABLE name (col TYPE, ...).
type CreateTableStmt struct {
	Name    string
	Columns []types.Column
}

// CreateIndexStmt: CREATE INDEX name ON table (cols).
type CreateIndexStmt struct {
	Name    string
	Table   string
	Columns []string
}

// InsertStmt: INSERT INTO table [(cols)] VALUES (exprs).
type InsertStmt struct {
	Table   string
	Columns []string
	Values  []Expr
}

// SelectStmt: classical SELECT (also used as subquery).
type SelectStmt struct {
	Items []SelectItem
	From  []TableRef
	Where Expr // nil if absent
	Limit int  // 0 = no limit
}

// EntangledSelectStmt: SELECT ... INTO ANSWER ... WHERE ... CHOOSE 1 (§2).
type EntangledSelectStmt struct {
	Items   []SelectItem
	Answers []string // INTO ANSWER names (first receives the head)
	Where   Expr
	Choose  int
}

// UpdateStmt: UPDATE table SET col=expr, ... [WHERE ...].
type UpdateStmt struct {
	Table string
	Set   []Assign // in SET order; no column twice
	Where Expr
}

// Assign is one SET col=expr of an UPDATE.
type Assign struct {
	Col  string
	Expr Expr
}

// DeleteStmt: DELETE FROM table [WHERE ...].
type DeleteStmt struct {
	Table string
	Where Expr
}

// SetStmt: SET @var = expr.
type SetStmt struct {
	Name string
	Expr Expr
}

// BeginStmt: BEGIN TRANSACTION [WITH TIMEOUT d].
type BeginStmt struct {
	Timeout time.Duration // 0 = engine default
}

// CommitStmt / RollbackStmt terminate a transaction block.
type CommitStmt struct{}
type RollbackStmt struct{}

func (*CreateTableStmt) isStmt()     {}
func (*CreateIndexStmt) isStmt()     {}
func (*InsertStmt) isStmt()          {}
func (*SelectStmt) isStmt()          {}
func (*EntangledSelectStmt) isStmt() {}
func (*UpdateStmt) isStmt()          {}
func (*DeleteStmt) isStmt()          {}
func (*SetStmt) isStmt()             {}
func (*BeginStmt) isStmt()           {}
func (*CommitStmt) isStmt()          {}
func (*RollbackStmt) isStmt()        {}
