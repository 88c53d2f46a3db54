// Package core is the paper's contribution: the software architecture
// linking the Dynamic PicoProbe to supercomputers. It wires the substrate
// services (transfer, compute, search, flows) into the two production data
// flows — hyperspectral and spatiotemporal — and provides the real
// analysis functions those flows execute. It is what picoprobe-watch and
// picoprobe-facilityd link; the experiment harness that evaluates it (the
// simulator, the calibrated profile, the placement wrapper, the wire
// campaign) lives in internal/lab, which imports this package and is
// never imported by it.
package core

// Endpoint IDs of the deployment.
const (
	EndpointInstrument = "picoprobe-user"
	EndpointEagle      = "alcf-eagle"
)

// Flow and function names.
const (
	FlowHyperspectral  = "picoprobe-hyperspectral"
	FlowSpatiotemporal = "picoprobe-spatiotemporal"

	FnHyperspectral  = "picoprobe_hyperspectral_analysis"
	FnSpatiotemporal = "picoprobe_spatiotemporal_inference"
	FnMetadataOnly   = "picoprobe_metadata_extraction"
	FnImageOnlyHS    = "picoprobe_hyperspectral_image_only"
	FnThumbnail      = "picoprobe_thumbnail_render"
	ComputeEnv       = "picoprobe-analysis"
)

// FlowName returns the flow and fused-analysis function names for one
// use case.
func FlowName(kind string) (flowName, fn string) {
	if kind == "spatiotemporal" {
		return FlowSpatiotemporal, FnSpatiotemporal
	}
	return FlowHyperspectral, FnHyperspectral
}
