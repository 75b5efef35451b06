// Package pivot implements pivot-trajectory selection and the
// pivot-based pruning bound of Section IV-D.
//
// Pivots apply only to metric measures (Hausdorff, Frechet, ERP). The
// paper's Eq. 5 mixes the triangle-inequality interval with an
// absolute value that is not a valid lower bound when dqp < HR.max;
// we use the classical interval form instead:
//
//	LBp = max_i max(0, dqp[i] − HR[i].Max, HR[i].Min − dqp[i]),
//
// where HR[i] is the (min,max) range of distances from the i-th pivot
// to the actual trajectories in a subtree. Storing distances to the
// actual trajectories (rather than to their reference trajectories
// plus a √2δ/2 slack) keeps the bound valid for ERP, whose distance
// to a reference trajectory is not bounded by the cell half-diagonal.
package pivot
