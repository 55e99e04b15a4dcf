package fleet

// ModelFactory is the factory a run with the named (non-base) model resolves
// base into when it starts.
func ModelFactory(base BackendFactory, model string) BackendFactory {
	m, err := parseModel(model)
	if err != nil || m == nil {
		panic("fleet: ModelFactory needs a stable model, got " + model)
	}
	return m.factory(base)
}

// SceneFills counts the displayed frames the run's engine has rendered.
func (r *Runner) SceneFills() int64 { return r.engine.fills.Load() }
