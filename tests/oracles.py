"""Independent brute-force oracles used by the test suite.

These deliberately avoid the library's fixed-point and eigenvalue-scan
implementations: subspace candidates are enumerated from eigenvector
subsets, operator images and random draws, and membership is decided by
plain projection residuals.  The two ``reference_*`` functions instead keep
the direct form of a library routine that now takes a shortcut, so that the
shortcut can be compared with it entry by entry or bit for bit.
"""

import itertools

import numpy as np


def random_dissipative_system(rng, n, m=None, c_scale=1.0):
    """(A, B, C) with sym(A) strictly negative definite and moderate norms."""
    if m is None:
        m = int(rng.integers(1, n + 1))
    G = rng.standard_normal((n, n))
    A = G - (np.linalg.norm(G, 2) + 0.5) * np.eye(n)
    B = rng.standard_normal((n, m))
    C = rng.standard_normal((n, n))
    C *= c_scale / max(np.linalg.norm(C, 2), 1e-12)
    return A, B, C


def orthonormalize(M, tol=1e-10):
    """Orthonormal basis of the column span of M."""
    if M.size == 0:
        return np.zeros((M.shape[0], 0))
    u, s, _ = np.linalg.svd(M, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((M.shape[0], 0))
    return u[:, s > tol * s[0]]


def is_strictly_invariant(A, C, B, V, tol=1e-8):
    """Projection test: V inside Ker B^T and A^T V inside span{V, C^T V}."""
    if V.shape[1] == 0:
        return True
    if np.linalg.norm(B.T @ V) > tol * max(1.0, np.linalg.norm(B)):
        return False
    span = orthonormalize(np.hstack([V, C.T @ V]))
    image = A.T @ V
    resid = image - span @ (span.T @ image)
    return np.linalg.norm(resid) <= tol * max(1.0, np.linalg.norm(image))


def subspace_contained(V, W, tol=1e-7):
    """Whether span(V) is contained in span(W) up to tol."""
    if V.shape[1] == 0:
        return True
    if W.shape[1] == 0:
        return np.linalg.norm(V) <= tol
    resid = V - W @ (W.T @ V)
    return np.linalg.norm(resid, 2) <= tol


def _real_eigvector_family(M):
    """Real vectors spanning eigen-directions of M (real/imag parts for
    complex pairs) plus orthonormal Schur prefix bases."""
    out = []
    vals, vecs = np.linalg.eig(M)
    for i in range(len(vals)):
        v = vecs[:, i]
        re, im = np.real(v), np.imag(v)
        if np.linalg.norm(re) > 1e-12:
            out.append(re / np.linalg.norm(re))
        if np.linalg.norm(im) > 1e-12:
            out.append(im / np.linalg.norm(im))
    return out


def candidate_subspaces(A, C, B, rng, n_random=200):
    """Spans of eigenvector subsets of A^T, their C^T images, and random
    subspaces of every dimension below n."""
    n = A.shape[0]
    vectors = _real_eigvector_family(A.T)
    vectors += [C.T @ v for v in vectors if np.linalg.norm(C.T @ v) > 1e-12]
    candidates = []
    for r in range(1, min(len(vectors), n) + 1):
        for subset in itertools.combinations(range(len(vectors)), r):
            V = orthonormalize(np.column_stack([vectors[i] for i in subset]))
            if V.shape[1]:
                candidates.append(V)
        if r >= n:
            break
    for _ in range(n_random):
        d = int(rng.integers(1, n + 1))
        V = orthonormalize(rng.standard_normal((n, d)))
        candidates.append(V)
    return candidates


def check_largest_invariant(A, C, B, returned, rng, n_random=200, tol=1e-7):
    """Oracle verdict on a strict_invariant_subspace result.

    Returns (ok, message): fails when the returned basis is not itself
    strictly invariant inside Ker B^T, or when some enumerated strictly
    invariant candidate is larger than the returned subspace or escapes it.
    """
    V = returned.basis
    if not is_strictly_invariant(A, C, B, V, tol):
        return False, "returned basis is not strictly invariant in Ker B^T"
    for W in candidate_subspaces(A, C, B, rng, n_random):
        if not is_strictly_invariant(A, C, B, W, tol):
            continue
        if W.shape[1] > returned.dim:
            return False, f"found strictly invariant candidate of dim {W.shape[1]} > {returned.dim}"
        if not subspace_contained(W, V, 1e-6):
            return False, "found strictly invariant candidate not contained in the result"
    return True, ""


def reference_divform(N, a_fn, c_fn, b_fn, nodes, weights):
    """(A, B, C) of the divergence-form Galerkin system from sine and cosine
    tables of every mode on the quadrature nodes, A symmetrised afterwards:
    the direct weak-form products, against which the Fourier-moment assembly
    is checked."""
    k = np.arange(1, N + 1)[:, None]
    arg = k * np.pi * nodes[None, :]
    e, de = np.sqrt(2.0) * np.sin(arg), np.sqrt(2.0) * (k * np.pi) * np.cos(arg)
    a, c, b = (np.broadcast_to(np.asarray(fn(nodes), dtype=float), nodes.shape)
               for fn in (a_fn, c_fn, b_fn))
    A = -(de * (weights * a)) @ de.T
    C = (e * (weights * c)) @ de.T
    B = (e @ (weights * b)).reshape(N, 1)
    return 0.5 * (A + A.T), B, C


def reference_sweep(A, C, B, tol=1e-9):
    """Basis of the largest strictly invariant subspace in Ker B^T by the
    plain fixed-point sweep from V0 = Ker B^T, with no early exit: the same
    SVDs, thresholds and products as the library's sweep, so that a shortcut
    which claims to return the sweep's answer can be compared bit for bit."""
    def split(M, scale=None):
        u, s, vh = np.linalg.svd(M)
        rank = int(np.sum(s > tol * (s.max(initial=0.0) if scale is None else scale)))
        return u[:, :rank], vh[rank:].T

    A, C, B = (np.array(M, dtype=float) for M in (A, C, B))
    _, V = split(B.T)
    while V.shape[1] > 0:
        span, _ = split(np.hstack([V, C.T @ V]))
        image = A.T @ V
        resid = image - span @ (span.T @ image)
        _, coeff_null = split(resid / max(np.linalg.norm(image, 2), 1.0), 1.0)
        if coeff_null.shape[1] == V.shape[1]:
            break
        V = V @ coeff_null
    return V
