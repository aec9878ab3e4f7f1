package match

// OracleMatch answers req through the reference engine (oracle_test.go),
// for the snapshot differential in the external test package.
func (e *Engine) OracleMatch(req Request) (Response, error) { return e.oracleMatch(req) }
