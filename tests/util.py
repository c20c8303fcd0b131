"""Shared helpers for the test suite."""

import contextlib
import json
import math
from unittest import mock

import numpy as np
from hypothesis import strategies as st
from scipy import sparse
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator

import stgl.io as stgl_io
from stgl import (DirectedInput, GraphFormatError, TimeEvolvingGraph,
                  assemble_system, laplacian, propagate_densities, supra)
from stgl.laplacian import symmetric_eigenpairs
from stgl.supra import VARIANTS, SupraSystem


def random_teg(seed, n_max=50, M_max=6, density=0.25):
    """A random sparse time-evolving graph; alternates directed/undirected."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, n_max + 1))
    M = int(rng.integers(2, M_max + 1))
    directed = bool(rng.integers(2))
    snaps = []
    for _ in range(M):
        W = rng.random((n, n)) * (rng.random((n, n)) < density)
        np.fill_diagonal(W, 0.0)
        if not directed:
            W = np.triu(W)
            W = W + W.T
        snaps.append(W)
    return TimeEvolvingGraph(snaps, directed=directed)


def with_self_loops(graph):
    """Copy of ``graph`` with 1 added to every diagonal entry, as a second
    graph; ``propagate_densities`` and ``build_supra`` take the same sum
    W + I view by view."""
    eye = sparse.identity(graph.n, format="csr")
    snaps = tuple(sparse.csr_array(W + eye) for W in graph.snapshots)
    return TimeEvolvingGraph(snaps, directed=graph.directed)


def rank_one_coupling_graph(n=12):
    """Two views, the first an all-ones snapshot, the second random with
    unit self-loops; without self-loop regularization the first view's
    transition rows are all uniform, so the view coupling has rank 1."""
    rng = np.random.default_rng(0)
    W = rng.random((n, n)) * (rng.random((n, n)) < 0.4)
    np.fill_diagonal(W, 1.0)
    return TimeEvolvingGraph([np.ones((n, n)), W], directed=True)


def clique_coupling_graph(sizes=(150, 120, 90), seed=0):
    """Two directed views whose first has rows identical within each group.

    The first view joins each group into a clique (the unit self-loop
    completes it) with weak group-to-group weights, so its transition
    matrix and the view coupling have rank len(sizes), and the odd-view
    Gram matrix has a null space. Returns the graph and the group labels.
    """
    groups = np.repeat(np.arange(len(sizes)), sizes)
    rng = np.random.default_rng(seed)
    between = rng.uniform(0.01, 0.05, (len(sizes), len(sizes)))
    np.fill_diagonal(between, 1.0)
    W0 = between[groups][:, groups]
    np.fill_diagonal(W0, 0.0)
    W1 = W0 * rng.random(W0.shape)
    return TimeEvolvingGraph([W0, W1], directed=True), groups


def build_system(graph, **kwargs):
    return assemble_system(propagate_densities(graph, **kwargs))


def reference_assign(points, centroids):
    """k-means assignment through the N x k x d broadcast difference: labels
    and inertia."""
    d2 = np.sum((points[:, None, :] - centroids[None, :, :]) ** 2, axis=2)
    labels = np.argmin(d2, axis=1)
    return labels, float(d2[np.arange(len(points)), labels].sum())


def ari_pair_oracle(a, b):
    """Exhaustive pair enumeration over all C(n, 2) item pairs."""
    n = len(a)
    s11 = s10 = s01 = s00 = 0
    for i in range(n):
        for j in range(i + 1, n):
            same_a = a[i] == a[j]
            same_b = b[i] == b[j]
            if same_a and same_b:
                s11 += 1
            elif same_a:
                s10 += 1
            elif same_b:
                s01 += 1
            else:
                s00 += 1
    denominator = (s11 + s10) * (s10 + s00) + (s11 + s01) * (s01 + s00)
    if denominator == 0:
        return 1.0
    return 2 * (s11 * s00 - s10 * s01) / denominator


def reference_symmetrized(graph):
    """Independent dense construction of B^{-1/2} A B^{-1/2}.

    Assembles the covariance blocks directly from the definitions, without
    going through the library's system assembly.
    """
    ops = propagate_densities(graph)
    n, M = graph.n, ops.M
    N = M * n
    A = np.zeros((N, N))
    for t in range(M - 1):
        S = ops.transitions[t].toarray()
        cross = np.diag(ops.densities[t]) @ S
        A[t * n:(t + 1) * n, (t + 1) * n:(t + 2) * n] = cross
        A[(t + 1) * n:(t + 2) * n, t * n:(t + 1) * n] = cross.T
    b = np.concatenate([(1.0 if t in (0, M - 1) else 2.0) * ops.densities[t]
                        for t in range(M)])
    d = 1.0 / np.sqrt(b)
    return d[:, None] * A * d[None, :], b


def system_A(system):
    """A, the Mn x Mn symmetric block-tridiagonal matrix of the cross blocks."""
    blocks = [[None] * system.M for _ in range(system.M)]
    for t, cross in enumerate(system.cross):
        blocks[t][t + 1] = cross
        blocks[t + 1][t] = cross.T
    return sparse.csr_array(sparse.block_array(blocks, format="csr"))


def system_C(system):
    """The row-stochastic matrix B^{-1} A."""
    return sparse.csr_array(sparse.diags_array(1.0 / system.B_diag) @ system_A(system))


def sparse_symmetrized(system):
    """B^{-1/2} A B^{-1/2} as a sparse matrix, symmetrized as (H + H^T) / 2."""
    d = sparse.diags_array(1.0 / np.sqrt(system.B_diag))
    H = sparse.csr_array(d @ system_A(system) @ d)
    return sparse.csr_array((H + H.T) * 0.5)


def reference_coupling(system):
    """X sliced from A: its even-view rows and odd-view columns, scaled by
    B^{-1/2} on both sides."""
    views = np.arange(system.size) // system.n
    even, odd = np.flatnonzero(views % 2 == 0), np.flatnonzero(views % 2 == 1)
    d_even, d_odd = (sparse.diags_array(1.0 / np.sqrt(system.B_diag[rows]))
                     for rows in (even, odd))
    return sparse.csr_array(d_even @ system_A(system)[even][:, odd] @ d_odd)


def transfer_operator_C(ops):
    """C assembled from the Koopman and reweighted Perron-Frobenius blocks.

    The second route to C = B^{-1} A: block (t, t+1) is the Koopman matrix
    S_t and block (t+1, t) the reweighted Perron-Frobenius matrix
    D_{mu_{t+1}}^{-1} S_t^T D_{mu_t}, each halved when its row view is
    interior. Never touches the library's A or B.
    """
    n, M = ops.n, ops.M
    mus = ops.densities
    blocks = [[None] * M for _ in range(M)]
    for t in range(M - 1):
        koop = sparse.csr_array(ops.transitions[t])
        inv_mu = sparse.dia_array((1.0 / mus[t + 1][None, :], [0]), shape=(n, n))
        mu = sparse.dia_array((mus[t][None, :], [0]), shape=(n, n))
        pf = sparse.csr_array(inv_mu @ ops.transitions[t].T @ mu)
        blocks[t][t + 1] = koop if t == 0 else koop * 0.5
        blocks[t + 1][t] = pf if t == M - 2 else pf * 0.5
    return sparse.csr_array(sparse.block_array(blocks, format="csr"))


def reference_build_supra(graph: TimeEvolvingGraph, a, variant="unnormalized") -> SupraSystem:
    """``build_supra`` through chained scipy operations.

    Both variants start from the layered-graph adjacency
    W = blockdiag(W_t) + a (P kron I), P the path adjacency over the views.
    "unnormalized" takes H = diag(W 1) - W on the raw snapshots (self-loops
    cancel there); "normalized" takes H = I - D^{-1/2} W D^{-1/2} on the
    self-looped snapshots, so every degree is at least 1. Directed input is
    rejected: the resulting matrix would have complex eigenvalues in general,
    so callers must ``symmetrize`` first.
    """
    if graph.directed:
        raise DirectedInput("supra-Laplacian needs an undirected graph; "
                            "apply symmetrize() first")
    if not 0 <= a < math.inf:
        raise ValueError(f"coupling strength must be finite and nonnegative, got {a}")
    if variant not in VARIANTS:
        raise ValueError(f"unknown Laplacian variant {variant!r}; "
                         f"expected one of {VARIANTS}")
    n, M = graph.n, graph.M
    N = M * n
    g = with_self_loops(graph) if variant == "normalized" else graph
    path = sparse.diags_array([np.ones(M - 1), np.ones(M - 1)], offsets=[-1, 1],
                              format="csr")
    blocks = sparse.block_diag(g.snapshots, format="csr")
    coupling = sparse.kron(path, sparse.identity(n, format="csr"))
    W = sparse.csr_array(blocks + a * coupling)

    if variant == "unnormalized":
        # diag(W 1) as snapshot degree plus coupling degree, which rounds
        # exactly like the per-view D_t - W_t plus the lifted path Laplacian
        degrees = (np.asarray(blocks.sum(axis=1)).ravel()
                   + a * np.asarray(coupling.sum(axis=1)).ravel())
        H = sparse.csr_array(sparse.diags_array(degrees) - W)
        return SupraSystem(M=M, H=H, scale=np.ones(N))

    del blocks  # only W is read below; the copy would raise the peak memory
    degrees = np.asarray(W.sum(axis=1)).ravel()
    eye = sparse.identity(N, format="csr")
    inv_sqrt = sparse.diags_array(1.0 / np.sqrt(degrees))
    H = sparse.csr_array(eye - inv_sqrt @ W @ inv_sqrt)
    H = sparse.csr_array((H + H.T) * 0.5)
    return SupraSystem(M=M, H=H, scale=1.0 / np.sqrt(degrees))


def supra_laplacian(system):
    """The supra-Laplacian diag(scale) H diag(1 / scale) of a ``SupraSystem``."""
    left = sparse.dia_array((system.scale[None, :], [0]), shape=system.H.shape)
    right = sparse.dia_array((1.0 / system.scale[None, :], [0]), shape=system.H.shape)
    return sparse.csr_array(left @ system.H @ right)


def reference_random_walk_laplacian(graph, a, self_loops=True):
    """Dense I - D^{-1} W of the layered graph coupled with strength a.

    W stacks the (optionally self-looped) snapshots on the diagonal and
    links each vertex to its copies at adjacent views with weight a.
    """
    g = with_self_loops(graph) if self_loops else graph
    n, M = g.n, g.M
    W = np.zeros((M * n, M * n))
    for t in range(M):
        W[t * n:(t + 1) * n, t * n:(t + 1) * n] = g.snapshots[t].toarray()
    for t in range(M - 1):
        idx = np.arange(n)
        W[t * n + idx, (t + 1) * n + idx] = a
        W[(t + 1) * n + idx, t * n + idx] = a
    return np.eye(M * n) - W / W.sum(axis=1)[:, None]


def reverse_rows(S):
    """A new CSR array holding S with each row's entries in reverse order.

    Its arrays are new too, so neither S nor a sortedness flag that scipy
    cached on S is touched."""
    rows = np.repeat(np.arange(S.shape[0]), np.diff(S.indptr))
    order = S.indptr[rows] + S.indptr[rows + 1] - 1 - np.arange(S.nnz)
    return sparse.csr_array((S.data[order], S.indices[order], S.indptr.copy()),
                            shape=S.shape)


def reference_walks(ops, starts, seed):
    """The per-walker walk: one ``Generator.choice`` call per step.

    Walker i draws from ``default_rng((seed, i))`` and reads each row of
    S_t densely, so nothing depends on the CSR layout of the transitions.
    """
    n = ops.n
    paths = []
    for i, start in enumerate(starts):
        if not 0 <= start < n:
            raise ValueError(f"start vertex {start} out of range [0, {n})")
        rng = np.random.default_rng((seed, i))
        path = [int(start)]
        for S in ops.transitions[:-1]:
            row = sparse.csr_array(S)[[path[-1]], :].toarray().ravel()
            path.append(int(rng.choice(n, p=row)))
        paths.append(path)
    return np.array(paths, dtype=np.intp).reshape(len(starts), ops.M)


def arpack_two_converged(A, k, **kwargs):
    """Stands in for ``eigsh``: fails with two converged eigenpairs."""
    N = A.shape[0]
    raise ArpackNoConvergence("no convergence", np.zeros(2), np.zeros((N, 2)))


def fix_signs_by_column(vecs):
    """``laplacian._fix_signs`` as a Python loop over the columns: flip a
    column whose first entry above 1e-12 times its largest magnitude is
    negative."""
    for j in range(vecs.shape[1]):
        v = vecs[:, j]
        nz = np.flatnonzero(np.abs(v) > 1e-12 * np.abs(v).max())
        if nz.size and v[nz[0]] < 0:
            vecs[:, j] = -v
    return vecs


def sort_eigenpairs_by_loop(vals, vecs, descending):
    """Eigenpairs sorted by a stable sort of the values, each run of exactly
    equal values ordered by ``sorted`` on its column tuples."""
    order = np.argsort(-vals if descending else vals, kind="stable")
    sorted_vals = vals[order]
    i = 0
    while i < len(order):
        j = i + 1
        while j < len(order) and sorted_vals[j] == sorted_vals[i]:
            j += 1
        if j - i > 1:
            order[i:j] = sorted(order[i:j], key=lambda c: tuple(vecs[:, c]))
        i = j
    return vals[order], vecs[:, order]


def solver_sorted_eigenpairs(H, k, *, largest=True):
    """``symmetric_eigenpairs`` that sorts its own pairs: eigenvalues
    descending in largest mode, ascending in smallest."""
    vals, vecs = symmetric_eigenpairs(H, k, largest=largest)
    return sort_eigenpairs_by_loop(vals, vecs, largest)


@contextlib.contextmanager
def solver_side_sort():
    """Within the block every solve of ``laplacian`` and ``supra`` sorts its
    pairs at the solver, and every sign is fixed by ``fix_signs_by_column``.
    The pairs are ordered again where they are final, so no output bit may
    change."""
    with (mock.patch.object(laplacian, "_fix_signs", fix_signs_by_column),
          mock.patch.object(laplacian, "symmetric_eigenpairs", solver_sorted_eigenpairs),
          mock.patch.object(supra, "symmetric_eigenpairs", solver_sorted_eigenpairs)):
        yield


def reference_eigendecompose(system, k_request):
    """``eigendecompose`` with its spatial pairs solved on the full system.

    Replaces the lift from the view coupling with restarted Lanczos on the
    N x N matrix H - Q (T + 2I) Q^T, the deflated full-system solve.
    """
    def full_system(system, k, Q, T):
        H = sparse_symmetrized(system)
        S = T + 2.0 * np.eye(system.M)
        deflated = LinearOperator(H.shape, dtype=float,
                                  matvec=lambda x: H @ x - Q @ (S @ (Q.T @ x)))
        return symmetric_eigenpairs(deflated, k)

    with mock.patch.object(laplacian, "_coupling_eigenpairs", full_system):
        return laplacian.eigendecompose(system, k_request)


def _reference_edge_records(edges):
    """Parse the ``edges`` field into (t, i, j, w) number tuples."""
    try:
        for t, i, j, w in edges:
            if not (type(t) is type(i) is type(j) is int
                    and type(w) in (int, float)):
                raise TypeError(f"record {[t, i, j, w]!r} is not "
                                "[integer, integer, integer, number]")
            yield t, i, j, float(w)
    except (TypeError, ValueError, OverflowError) as err:
        raise GraphFormatError(f"edges must be a list of [t, i, j, w] number "
                               f"records: {err}") from err


def _reference_object(pairs):
    """A JSON object as a dict; the first name that comes twice is an error."""
    names = [name for name, _ in pairs]
    for name in names:
        if names.count(name) > 1:
            raise GraphFormatError(f"the member {name!r} appears more than once")
    return dict(pairs)


def reference_load_graph(path):
    """The per-record graph loader: one dict of entries per view.

    Checks and mirrors each record in a Python loop and builds each view
    from its dict, so it shares no array code with ``stgl.load_graph``.
    """
    with open(path) as handle:
        try:
            doc = json.load(handle, object_pairs_hook=_reference_object)
        except json.JSONDecodeError as err:
            raise GraphFormatError(f"not valid JSON: {err}") from err
    try:
        n, M, directed, edges = doc["n"], doc["M"], doc["directed"], doc["edges"]
    except (KeyError, TypeError) as err:
        raise GraphFormatError(f"missing or malformed header field: {err}") from err
    if not (type(n) is type(M) is int and n >= 1 and type(directed) is bool):
        raise GraphFormatError("header fields n and M must be integers, n "
                               "positive, and directed a boolean")
    if M * n > stgl_io.MAX_SYSTEM_SIZE:
        raise GraphFormatError(f"n = {n} vertices over M = {M} views exceed "
                               f"the system size limit of {stgl_io.MAX_SYSTEM_SIZE}")

    entries = [dict() for _ in range(M)]
    for t, i, j, w in _reference_edge_records(edges):
        if not 1 <= t <= M:
            raise GraphFormatError(f"view {t} out of range [1, {M}]")
        if not (0 <= i < n and 0 <= j < n):
            raise GraphFormatError(f"vertex pair ({i}, {j}) out of range [0, {n})")
        if not 0 < w < math.inf:
            raise GraphFormatError(f"edge weight must be positive and finite, "
                                   f"got {w}")
        keys = [(i, j)] if directed or i == j else [(i, j), (j, i)]
        for key in keys:
            old = entries[t - 1].get(key)
            if old is not None and old != w:
                raise GraphFormatError(f"conflicting duplicate edge {key} at view {t}")
            entries[t - 1][key] = w

    snapshots = []
    for view in entries:
        if view:
            rows, cols = zip(*view.keys())
            W = sparse.coo_array((list(view.values()), (rows, cols)), shape=(n, n))
        else:
            W = sparse.coo_array((n, n))
        snapshots.append(sparse.csr_array(W))
    graph = TimeEvolvingGraph(snapshots, directed=directed)

    labels = doc.get("labels")
    if labels is not None:
        if not (isinstance(labels, list) and len(labels) == M
                and all(isinstance(row, list) and len(row) == n
                        and all(type(v) is int for v in row) for row in labels)):
            raise GraphFormatError(f"labels must be {M} lists of {n} integers")
        try:
            labels = np.array(labels, dtype=int)
        except OverflowError as err:
            raise GraphFormatError(f"labels must be integers: {err}") from err
    return graph, labels


def reference_new_records(t, i, j):
    """The loader's dedup mask of records sorted by (t, i, j), from the stacked
    differences of the three columns: True where a record's (t, i, j) differs
    from the record before, and at the first record, since t >= 1."""
    return np.diff(np.stack([t, i, j]), axis=1, prepend=0).any(axis=0)


def reference_graph_payload(graph, labels=None):
    """The graph file's JSON document, built record by record from each
    view's COO entries (undirected edges once, i <= j)."""
    edges = []
    for t, W in enumerate(graph.snapshots, start=1):
        coo = W.tocoo()
        for i, j, w in zip(coo.row, coo.col, coo.data):
            if graph.directed or i <= j:
                edges.append([t, int(i), int(j), float(w)])
    payload = {"n": graph.n, "M": graph.M, "directed": graph.directed,
               "edges": edges}
    if labels is not None:
        payload["labels"] = np.asarray(labels, dtype=int).tolist()
    return payload


CORRUPTIONS = ("drop-key", "wrong-type", "nan", "inf", "negative",
               "fractional", "truncate", "duplicate", "view-range",
               "vertex-range")


def corrupt(text, kind, draw):
    """One corruption of ``kind`` applied to a saved graph file's text.

    Header ``n`` and ``M`` never grow: every corruption of them yields a
    non-integer or a value no larger than before.
    """
    if kind == "truncate":
        return text[:draw(st.integers(0, len(text) - 1))]
    doc = json.loads(text)
    if kind == "drop-key":
        del doc[draw(st.sampled_from(sorted(doc)))]
        return json.dumps(doc)
    edges = doc["edges"]
    if not edges:
        edges.append([1, 0, 0, 1.0])
    record = draw(st.sampled_from(edges))
    if kind == "duplicate":
        edges.append(record[:3] + [2.0 * record[3] + 1.0])
    elif kind == "view-range":
        record[0] = draw(st.sampled_from([0, -1, doc["M"] + 1, 10**12]))
    elif kind == "vertex-range":
        record[draw(st.sampled_from([1, 2]))] = draw(
            st.sampled_from([-1, doc["n"], 10**12]))
    else:
        slots = [(doc, "n"), (doc, "M"), (record, 0), (record, 1),
                 (record, 2), (record, 3)]
        if kind == "wrong-type":
            slots.append((doc, "directed"))
        if "labels" in doc:
            slots.append((draw(st.sampled_from(doc["labels"])), 0))
        owner, key = draw(st.sampled_from(slots))
        if kind == "wrong-type":
            other = 1 if key == "directed" else True
            owner[key] = draw(st.sampled_from(["3", None, other, [], {}]))
        elif kind == "nan":
            owner[key] = float("nan")
        elif kind == "inf":
            owner[key] = draw(st.sampled_from([float("inf"), float("-inf")]))
        elif kind == "negative":
            owner[key] = -owner[key] - 1
        else:
            owner[key] += 0.5
    return json.dumps(doc)
