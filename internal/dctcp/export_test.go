package dctcp

// Alpha returns the current marked-fraction estimate.
func (d *CC) Alpha() float64 { return d.alpha }
