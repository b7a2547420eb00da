package sql

import "fmt"

// ParseOne parses exactly one statement.
func ParseOne(src string) (Stmt, error) {
	stmts, err := Parse(src)
	if err != nil {
		return nil, err
	}
	if len(stmts) != 1 {
		return nil, fmt.Errorf("sql: expected one statement, got %d", len(stmts))
	}
	return stmts[0], nil
}
