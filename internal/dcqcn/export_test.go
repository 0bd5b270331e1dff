package dcqcn

// Alpha returns the current congestion estimate.
func (d *CC) Alpha() float64 { return d.alpha }
