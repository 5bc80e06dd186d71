"""Strongly connected components, iterative Tarjan."""

from __future__ import annotations


def strongly_connected_components(succ) -> list[list[int]]:
    """SCCs of a digraph given as a sequence of successor iterables.

    Each component is sorted; components are ordered by their least
    member, which makes downstream witness choices deterministic.

    Iterative so that graphs with long chains do not hit the recursion
    limit: each vertex on the work stack carries an iterator over its
    edges.  Index 0 marks a vertex not yet visited, and n + 1 one already
    in a component: no low-link reaches n + 1, so an edge into a finished
    component never lowers one.
    """
    n = len(succ)
    index = [0] * n
    low = [0] * n
    stack: list[int] = []
    counter = 0
    components: list[list[int]] = []

    for root in range(n):
        if index[root]:
            continue
        counter += 1
        index[root] = low[root] = counter
        stack.append(root)
        work = [(root, iter(succ[root]))]
        while work:
            v, edges = work[-1]
            for w in edges:
                if not index[w]:
                    counter += 1
                    index[w] = low[w] = counter
                    stack.append(w)
                    work.append((w, iter(succ[w])))
                    break
                if index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    if low[v] < low[u]:
                        low[u] = low[v]
                if low[v] == index[v]:
                    comp = []
                    while True:
                        w = stack.pop()
                        index[w] = n + 1
                        comp.append(w)
                        if w == v:
                            break
                    components.append(sorted(comp))
    components.sort(key=lambda c: c[0])
    return components
