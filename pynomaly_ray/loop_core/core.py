"""Exact LoOP (Local Outlier Probability) math — pure NumPy, no Ray.

From-scratch, fully vectorized reimplementation of the semantics of the
reference engine (PyNomaly v0.4.0, ``/root/reference/PyNomaly/loop.py``),
per Kriegel, Kröger, Schubert, Zimek — "LoOP: Local Outlier Probabilities",
CIKM 2009.  The reference accumulates an 11-column object-dtype matrix via
``np.hstack`` (loop.py:560-566, 771-951); we instead keep one float64 array
per statistic and vectorize every step.  Public surface (class name,
constructor params, fitted attributes, exception hierarchy and warning
messages) is kept API-compatible so the reference's own test expectations
hold verbatim (see tests/test_loop_core.py).

Numeric semantics reproduced exactly (parity target 1e-9):

- kNN: per-cluster brute-force Euclidean in 256-row chunks, self-distance
  masked to +inf, unordered k-smallest via ``np.argpartition`` (reference
  loop.py:648-694).  Neighbor indices are *global* row ids.  A chunk's
  distances come from the broadcast-subtract form while its
  (rows, points, features) temporary stays small, and from one BLAS
  product otherwise (``_pairwise_euclidean``), so a 3,072 x 22 fit peaks
  at about 15 MB instead of building a 138 MB temporary per chunk.
- ssd_i       = sum of squared kNN distances               (loop.py:771-789)
- std_i       = sqrt(ssd_i / n_neighbors)                  (loop.py:791-803)
              NOTE: divides by the configured ``n_neighbors`` even in
              distance-matrix mode when the matrix width differs — a
              uniform rescale that cancels in the PLOF ratio
              (loop.py:802; tests/test_loop.py:788-829 relies on this).
- pdist_i     = extent * std_i                             (loop.py:805-815)
- pdist_ev_i  = mean of pdist over i's neighbors (NaN-excluded)
                                                           (loop.py:817-842)
- plof_i      = pdist_i / pdist_ev_i - 1, with guards: if the *whole*
  pdist vector equals the pdist_ev vector -> all zeros; ev==0 -> 1e-8
                                                           (loop.py:497-513)
- plof_ev_c   = mean over cluster c of plof^2 (NaN-excluded)
                                                           (loop.py:869-904)
- nplof_i     = extent * sqrt(plof_ev_{cluster(i)})        (loop.py:515-528)
- loop_i      = max(0, erf(plof_i / (nplof_i * sqrt(2)))), with guard:
  whole plof vector == nplof vector -> all zeros           (loop.py:530-549)
"""

from __future__ import annotations

import math
import warnings
from typing import Optional, Sequence, Union

import numpy as np

__all__ = [
    "PyNomalyError",
    "ValidationError",
    "ClusterSizeError",
    "MissingValuesError",
    "LocalOutlierProbability",
    "erf_vec",
]


# --------------------------------------------------------------------------
# Exception hierarchy — names and messages are part of the compatible API
# (reference loop.py:85-102, docs/api.md:95-111).
# --------------------------------------------------------------------------
class PyNomalyError(Exception):
    """Base exception for the LoOP core."""


class ValidationError(PyNomalyError):
    """Raised when input validation fails."""


class ClusterSizeError(ValidationError):
    """Raised when a cluster has fewer members than ``n_neighbors``."""


class MissingValuesError(ValidationError):
    """Raised when the input data contains NaN values."""


_SQRT2 = math.sqrt(2.0)

# math.erf applied elementwise; scipy is unavailable in this environment.
# math.erf is correctly rounded, matching scipy.special.erf to < 1 ulp,
# so parity with the reference's scipy path holds at the 1e-9 bar.
_erf_ufunc = np.frompyfunc(math.erf, 1, 1)


def erf_vec(x: np.ndarray) -> np.ndarray:
    """Elementwise Gauss error function returning float64."""
    return np.asarray(
        _erf_ufunc(np.asarray(x, dtype=np.float64)), dtype=np.float64
    )


def _as_points(obj) -> np.ndarray:
    """Coerce user input to an ndarray, warning on unexpected types.

    Mirrors reference ``_convert_to_array`` (loop.py:175-200): DataFrame ->
    ``.values``; ndarray passes through; anything else warns and is coerced
    (lists via np.array, scalars wrapped in a length-1 array).
    """
    cls = type(obj).__name__
    if cls == "DataFrame":
        return obj.values
    if cls == "ndarray":
        return obj
    warnings.warn(
        "Provided data or distance matrix must be in ndarray "
        "or DataFrame.",
        UserWarning,
    )
    if isinstance(obj, list):
        return np.array(obj)
    return np.array([obj])


# Size, in float64 cells, of the (rows, points, features) broadcast
# temporary above which the BLAS form wins; it caps that temporary at
# 32 MB.  The feature count belongs in it: a 256-row chunk of a
# 3,072 x 22 stat table has only 786k (rows, points) cells, but its
# broadcast temporary would be 17.3M cells (138 MB).
_GEMM_MIN_CELLS = 4_000_000
_CHUNK_ROWS = 256  # query rows per kernel call in the fit and frozen scoring


def _pairwise_euclidean(chunk: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Dense Euclidean distances between ``chunk`` rows and all ``pts`` rows.

    The form is chosen by the size of the broadcast temporary,
    ``rows x points x features`` cells, against ``_GEMM_MIN_CELLS``.
    Below it, the broadcast-subtract form runs (same arithmetic as the
    reference's no-scipy fallback, loop.py:672-676, so small fixtures
    keep the reference's exact distance ties).  Above it, the BLAS
    expansion ||a-b||^2 = ||a||^2 - 2ab + ||b||^2 runs with
    ``rows x points`` temporaries only and is ~10-40x faster; its
    round-off is corrected two ways so degenerate inputs keep reference
    semantics: negatives clip to zero, and squared distances below
    eps * scale snap to exactly 0.0 (identical points must yield
    exactly-zero distances for the all-equal guards,
    loop.py:508-509,542-543).
    """
    if chunk.shape[0] * pts.shape[0] * pts.shape[1] < _GEMM_MIN_CELLS:
        diff = chunk[:, None, :] - pts[None, :, :]
        return np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    # Center first: pairwise distances are translation-invariant, and
    # centering removes the catastrophic cancellation the expansion
    # suffers on large-magnitude data (e.g. epoch-second features, where
    # ||x||^2 ~ 1e18 dwarfs real separations).  After centering, the
    # residual of identical points is a few ulps of the variance scale,
    # so a ~16*eps relative snap restores exact zeros without eating
    # genuine small distances.  The in-place steps compute exactly
    # a2 - 2ab + b2 without a temporary per operator.
    mu = pts.mean(axis=0)
    c = chunk - mu
    p = pts - mu
    a2 = np.einsum("ij,ij->i", c, c)
    b2 = np.einsum("ij,ij->i", p, p)
    d2 = c @ p.T
    d2 *= -2.0
    d2 += a2[:, None]
    d2 += b2[None, :]
    np.clip(d2, 0.0, None, out=d2)
    snap = a2[:, None] + b2[None, :]
    snap *= 16.0 * np.finfo(np.float64).eps
    d2[d2 <= snap] = 0.0
    return np.sqrt(d2, out=d2)


class LocalOutlierProbability:
    """LoOP model over a dense observation matrix or precomputed kNN matrices.

    API-compatible with the reference engine's public class
    (``/root/reference/PyNomaly/loop.py:133``): same constructor keywords,
    same fitted attributes (``local_outlier_probabilities``,
    ``prob_distances``, ``prob_distances_ev``,
    ``norm_prob_local_outlier_factor``, ``points_vector``, ``is_fit``),
    same warnings/exceptions.  ``use_numba``/``n_jobs``/``progress_bar``
    are accepted for compatibility; this implementation is always the
    vectorized NumPy path (Ray provides parallelism at the engine level).
    """

    _KWARG_TYPES = {
        "data": np.ndarray,
        "distance_matrix": np.ndarray,
        "neighbor_matrix": np.ndarray,
        "extent": (int, np.integer),
        "n_neighbors": (int, np.integer),
        "cluster_labels": list,
        "use_numba": bool,
        "n_jobs": (int, np.integer),
        "progress_bar": bool,
    }

    def __init__(
        self,
        data=None,
        distance_matrix=None,
        neighbor_matrix=None,
        extent: int = 3,
        n_neighbors: int = 10,
        cluster_labels: Optional[Sequence] = None,
        use_numba: bool = False,
        n_jobs: int = 1,
        progress_bar: bool = False,
    ) -> None:
        self._warn_arg_types(
            data=data,
            distance_matrix=distance_matrix,
            neighbor_matrix=neighbor_matrix,
            extent=extent,
            n_neighbors=n_neighbors,
            cluster_labels=cluster_labels,
            use_numba=use_numba,
            n_jobs=n_jobs,
            progress_bar=progress_bar,
        )

        self.data = data
        self.distance_matrix = distance_matrix
        self.neighbor_matrix = neighbor_matrix
        self.extent = extent
        self.n_neighbors = n_neighbors
        self.cluster_labels = cluster_labels
        self.use_numba = use_numba
        self.n_jobs = n_jobs
        self.progress_bar = progress_bar

        self.points_vector: Optional[np.ndarray] = None
        self.prob_distances: Optional[np.ndarray] = None
        self.prob_distances_ev: Optional[np.ndarray] = None
        self.norm_prob_local_outlier_factor = None
        self.local_outlier_probabilities: Optional[np.ndarray] = None
        self.is_fit = False

        if self.use_numba:
            # Numba is never available in this engine; keep the reference's
            # graceful-fallback contract (loop.py:453-457).
            self.use_numba = False
            warnings.warn(
                "Numba is not available, falling back to pure python mode.",
                UserWarning,
            )

        if self.n_jobs < -1 or self.n_jobs == 0:
            warnings.warn(
                "n_jobs must be -1 or a positive integer. Defaulting to 1.",
                UserWarning,
            )
            self.n_jobs = 1

        self._validate_inputs()
        self._check_extent()

    # ------------------------------------------------------------------
    # Validation (warning/exception contracts per reference loop.py:202-353)
    # ------------------------------------------------------------------
    def _warn_arg_types(self, **kwargs) -> None:
        """Warn (never raise) on unexpected constructor argument types.

        Mirrors the reference's ``accepts`` decorator contract
        (loop.py:359-410): ``None`` values are skipped, DataFrames are
        accepted where ndarrays are expected, message format matches the
        assertion in the reference suite (tests/test_loop.py:270-274).
        """
        for name, value in kwargs.items():
            if value is None:
                continue
            expected = self._KWARG_TYPES[name]
            if type(value).__name__ == "DataFrame":
                continue
            if not isinstance(value, expected):
                warnings.warn(
                    "Argument %r is not of type %s." % (name, expected),
                    UserWarning,
                )

    def _validate_inputs(self) -> bool:
        """Mutual-exclusion and shape checks, warning-based (loop.py:202-255)."""
        if self.data is None and self.distance_matrix is None:
            warnings.warn(
                "Data or a distance matrix must be provided.", UserWarning
            )
            return False
        if self.data is not None and self.distance_matrix is not None:
            warnings.warn(
                "Only one of the following may be provided: data or a "
                "distance matrix (not both).",
                UserWarning,
            )
            return False
        if self.data is not None:
            _as_points(self.data)
            return True
        if self.neighbor_matrix is None:
            warnings.warn(
                "A neighbor index matrix and distance matrix must both be "
                "provided when not using raw input data.",
                UserWarning,
            )
            return False
        if self.distance_matrix.shape != self.neighbor_matrix.shape:
            warnings.warn(
                "The shape of the distance and neighbor "
                "index matrices must match.",
                UserWarning,
            )
            return False
        if (
            self.distance_matrix.shape[1] != self.n_neighbors
            or self.neighbor_matrix.shape[1] != self.n_neighbors
        ):
            warnings.warn(
                "The shape of the distance or "
                "neighbor index matrix does not "
                "match the number of neighbors "
                "specified.",
                UserWarning,
            )
            return False
        return True

    def _n_observations(self) -> int:
        if self.data is not None:
            return len(self.data)
        return len(self.distance_matrix)

    def _cluster_label_array(self) -> np.ndarray:
        if self.cluster_labels is None:
            return np.zeros(self._n_observations(), dtype=np.int64)
        return np.asarray(self.cluster_labels)

    # Kept under the reference's private name for API compatibility
    # (tests/test_loop.py:502 calls clf._cluster_labels()).
    def _cluster_labels(self) -> np.ndarray:
        return self._cluster_label_array()

    def _check_n_neighbors(self) -> None:
        """Clamp k into (0, n_obs) with the reference's exact warnings
        (loop.py:275-298)."""
        if self.n_neighbors <= 0:
            self.n_neighbors = 10
            warnings.warn(
                "n_neighbors must be greater than 0."
                " Fit with " + str(self.n_neighbors) + " instead.",
                UserWarning,
            )
        elif self.n_neighbors >= self._n_observations():
            self.n_neighbors = self._n_observations() - 1
            warnings.warn(
                "n_neighbors must be less than the number of observations."
                " Fit with " + str(self.n_neighbors) + " instead.",
                UserWarning,
            )

    def _check_extent(self) -> bool:
        if self.extent not in [1, 2, 3]:
            warnings.warn(
                "extent parameter (lambda) must be 1, 2, or 3.", UserWarning
            )
            return False
        return True

    def _check_cluster_size(self) -> None:
        labels = self._cluster_label_array()
        _, counts = np.unique(labels, return_counts=True)
        if counts.size and counts.min() <= self.n_neighbors:
            raise ClusterSizeError(
                "Number of neighbors specified larger than smallest "
                "cluster. Specify a number of neighbors smaller than "
                "the smallest cluster size (observations in smallest "
                "cluster minus one)."
            )

    def _check_missing_values(self) -> None:
        if np.any(np.isnan(np.asarray(self.data, dtype=np.float64))):
            raise MissingValuesError(
                "Method does not support missing values in input data."
            )

    def _check_is_fit(self) -> bool:
        if not self.is_fit:
            warnings.warn(
                "Must fit on historical data by calling fit() prior to "
                "calling stream(x).",
                UserWarning,
            )
            return False
        return True

    def _check_no_cluster_labels(self) -> bool:
        if len(set(self._cluster_label_array().tolist())) > 1:
            warnings.warn(
                "Stream approach does not support clustered data. "
                "Automatically refit using single cluster of points.",
                UserWarning,
            )
            return False
        return True

    # ------------------------------------------------------------------
    # kNN (reference loop.py:648-694, 719-769)
    # ------------------------------------------------------------------
    def _compute_knn(self) -> None:
        """Per-cluster brute-force kNN with global neighbor row ids.

        Fills ``self.distance_matrix`` / ``self.neighbor_matrix`` exactly as
        the reference's vectorized path: chunked pairwise Euclidean,
        self-distance set to +inf, unordered k-smallest via argpartition
        (the unordered selection is sum-invariant downstream).
        """
        n = self._n_observations()
        k = self.n_neighbors
        distances = np.full((n, k), 9e10, dtype=np.float64)
        neighbors = np.zeros((n, k), dtype=np.int64)

        self.points_vector = _as_points(self.data)
        pts = np.asarray(self.points_vector, dtype=np.float64)
        if pts.ndim == 1:
            pts = pts.reshape(-1, 1)

        labels = self._cluster_label_array()
        for cluster_id in sorted(set(labels.tolist())):
            member_idx = np.flatnonzero(labels == cluster_id)
            cpts = pts[member_idx]
            m = cpts.shape[0]
            chunk = min(_CHUNK_ROWS, m)
            for lo in range(0, m, chunk):
                hi = min(lo + chunk, m)
                dist = _pairwise_euclidean(cpts[lo:hi], cpts)
                dist[np.arange(hi - lo), np.arange(lo, hi)] = np.inf
                sel = np.argpartition(dist, k, axis=1)[:, :k]
                distances[member_idx[lo:hi]] = np.take_along_axis(
                    dist, sel, axis=1
                )
                neighbors[member_idx[lo:hi]] = member_idx[sel]
                # free this chunk's (rows, points) arrays before the next
                # chunk's kernel allocates its own
                del dist, sel

        self.distance_matrix = distances
        self.neighbor_matrix = neighbors

    # ------------------------------------------------------------------
    # LoOP cascade over float64 column vectors (reference loop.py:771-951)
    # ------------------------------------------------------------------
    @staticmethod
    def _plof_from_pdist(
        pdist: np.ndarray, pdist_ev: np.ndarray
    ) -> np.ndarray:
        """PLOF with the reference's exact guard branches (loop.py:497-513)."""
        if np.all(pdist == pdist_ev):
            return np.zeros(pdist.shape)
        ev = np.array(pdist_ev, dtype=np.float64)
        ev[ev == 0.0] = 1.0e-8
        return pdist / ev - 1.0

    @staticmethod
    def _loop_from_plof(plof: np.ndarray, nplof: np.ndarray) -> np.ndarray:
        """erf normalization with the all-equal guard (loop.py:530-549)."""
        if np.all(plof == nplof):
            return np.zeros(np.shape(plof))
        plof_f = np.asarray(plof, dtype=np.float64)
        nplof_f = np.asarray(nplof, dtype=np.float64)
        return np.maximum(0.0, erf_vec(plof_f / (nplof_f * _SQRT2)))

    def _neighbor_pdist_mean(
        self, pdist: np.ndarray, neighbors: np.ndarray
    ) -> np.ndarray:
        """E[pdist] over each row's neighborhood, NaN-excluded
        (reference loop.py:817-842)."""
        gathered = pdist[neighbors]  # (n, k) gather by global row id
        if np.isnan(gathered).any():
            with np.errstate(invalid="ignore"):
                return np.nanmean(gathered, axis=1)
        return gathered.mean(axis=1)

    def fit(self) -> "LocalOutlierProbability":
        """Run the full LoOP cascade; see module docstring for the math."""
        self._check_n_neighbors()
        self._check_cluster_size()
        if self.data is not None:
            self._check_missing_values()
            self._compute_knn()

        labels = self._cluster_label_array()
        dmat = np.asarray(self.distance_matrix, dtype=np.float64)
        nmat = np.asarray(self.neighbor_matrix).astype(np.int64)

        ssd = np.einsum("ij,ij->i", dmat, dmat)
        std_dist = np.sqrt(ssd / self.n_neighbors)
        pdist = self.extent * std_dist
        pdist_ev = self._neighbor_pdist_mean(pdist, nmat)

        plof = self._plof_from_pdist(pdist, pdist_ev)

        # Per-cluster E[PLOF^2], NaN-excluded, broadcast back to rows.
        plof_ev = np.empty_like(plof)
        for cluster_id in np.unique(labels):
            rows = np.flatnonzero(labels == cluster_id)
            vals = plof[rows]
            vals = vals[~np.isnan(vals)]
            plof_ev[rows] = np.square(vals).sum() / float(vals.size)

        nplof = self.extent * np.sqrt(plof_ev)

        self.prob_distances = pdist
        self.prob_distances_ev = pdist_ev.reshape(-1, 1)
        self.norm_prob_local_outlier_factor = nplof.max()
        self.local_outlier_probabilities = self._loop_from_plof(plof, nplof)
        self.is_fit = True
        return self

    # ------------------------------------------------------------------
    # Streaming scorer against the frozen fit (reference loop.py:993-1046)
    # ------------------------------------------------------------------
    def stream(self, x) -> np.ndarray:
        """Score one new observation against the frozen fitted stats.

        Semantics per reference: k nearest of x among the training rows
        (sentinel-init 9e10, replace-current-max scan), ssd over the k
        distances, PLOF against the *global mean* of pdist_ev, LoOP against
        the *global max* nPLOF.  Clustered fits are degraded to a single
        cluster with a warning and refit; unfit models are fit first with a
        warning.
        """
        orig_cluster_labels = None
        if self._check_no_cluster_labels() is False:
            # Bug-compatible with the reference (loop.py:1006-1012): the
            # warning says "refit", but an already-fitted clustered model is
            # NOT refit — its frozen stats are reused with labels flattened.
            orig_cluster_labels = self.cluster_labels
            self.cluster_labels = np.zeros(
                len(self.data), dtype=np.int64
            ).tolist()

        if self._check_is_fit() is False:
            self.fit()

        point = _as_points(x)
        k = self.n_neighbors
        if self.data is not None:
            train = np.asarray(self.points_vector, dtype=np.float64)
            if train.ndim == 1:
                train = train.reshape(-1, 1)
            q = np.asarray(point, dtype=np.float64).reshape(-1)
            dists_all = np.sqrt(((train - q[None, :]) ** 2).sum(axis=1))
        else:
            # Matrix mode: x is one scalar distance applied for every
            # training row (reference loop.py:1018-1028).
            scalar = float(np.asarray(point).flat[0])
            dists_all = np.full(len(self.distance_matrix), scalar)

        # k-smallest with 9e10 sentinels surviving when n < k (parity with
        # the reference's replace-max scan, loop.py:1015,1029-1031).
        knn = np.full(k, 9e10, dtype=np.float64)
        m = min(k, dists_all.size)
        smallest = np.partition(dists_all, m - 1)[:m]
        knn[:m] = np.minimum(knn[:m], smallest)

        ssd = float(np.square(knn).sum())
        std_dist = math.sqrt(ssd / self.n_neighbors)
        pdist = self.extent * std_dist
        ev_mean = float(np.asarray(self.prob_distances_ev).mean())
        plof = self._plof_from_pdist(
            np.array(pdist), np.array(ev_mean)
        )
        score = self._loop_from_plof(
            plof, self.norm_prob_local_outlier_factor
        )

        if orig_cluster_labels is not None:
            self.cluster_labels = orig_cluster_labels

        return score
