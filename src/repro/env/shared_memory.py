"""Read-only model weights in shared memory for the serving fleet.

:class:`SharedModuleWeights` freezes a module's parameters into
``multiprocessing`` ``RawArray`` pages once; every replica process attaches
its policy to read-only numpy views over those pages instead of holding a
private copy.  The pages are inherited by ``fork`` workers and pickled by
handle for ``spawn`` workers, so one implementation covers both start
methods.
"""

from __future__ import annotations

import multiprocessing
from typing import Dict, List, Optional, Tuple

import numpy as np


class SharedModuleWeights:
    """Read-only model parameters in shared-memory pages, one copy fleet-wide.

    The serving fleet runs N replica processes that all host the same policy;
    holding N private copies of the weights wastes memory and makes replica
    startup pay a full deserialize.  This class freezes one module's
    ``state_dict`` into ``RawArray`` pages so every replica *attaches* to the
    single shared copy instead.

    :meth:`attach` points a structurally-identical module's parameters at
    **read-only** numpy views over the pages — zero copies, and any code path
    that tried to mutate a shared weight in place raises immediately instead
    of silently corrupting its siblings.  Inference never writes parameters
    (gradients and the float32 cast cache live in private memory), so serving
    replicas run unchanged.
    """

    def __init__(self, state: Dict[str, np.ndarray], context=None) -> None:
        if not state:
            raise ValueError("cannot share an empty state dict")
        ctx = context if context is not None else multiprocessing
        self._specs: Dict[str, Tuple[Tuple[int, ...], np.dtype]] = {}
        self._blocks = {}
        for name, array in state.items():
            array = np.ascontiguousarray(array)
            self._specs[name] = (array.shape, array.dtype)
            block = ctx.RawArray("b", max(array.nbytes, 1))
            view = np.frombuffer(block, dtype=array.dtype, count=array.size).reshape(
                array.shape
            )
            view[...] = array
            self._blocks[name] = block
        self._views: Optional[Dict[str, np.ndarray]] = None

    @classmethod
    def from_module(cls, module, context=None) -> "SharedModuleWeights":
        """Freeze ``module.state_dict()`` into shared pages."""
        return cls(module.state_dict(), context=context)

    # -- pickling: ship the raw blocks, rebuild views per process -------- #
    def __getstate__(self):
        state = self.__dict__.copy()
        state["_views"] = None
        return state

    @property
    def views(self) -> Dict[str, np.ndarray]:
        """Per-process **read-only** views over the shared parameter pages."""
        if self._views is None:
            views = {}
            for name, (shape, dtype) in self._specs.items():
                view = np.frombuffer(
                    self._blocks[name], dtype=dtype, count=int(np.prod(shape))
                ).reshape(shape)
                view.flags.writeable = False
                views[name] = view
            self._views = views
        return self._views

    def nbytes(self) -> int:
        """Total shared allocation across all parameter pages."""
        return sum(len(block) for block in self._blocks.values())

    def parameter_names(self) -> List[str]:
        return sorted(self._specs)

    def attach(self, module) -> None:
        """Point ``module``'s parameters at the shared pages (no copies).

        The module must be structurally identical to the one the weights were
        frozen from (same parameter names, shapes and dtypes) — replicas
        rebuild the architecture from the checkpoint's config and attach.
        """
        views = self.views
        own = dict(module.named_parameters())
        missing = set(own) - set(views)
        unexpected = set(views) - set(own)
        if missing or unexpected:
            raise KeyError(
                "shared weights do not match the module: "
                f"missing={sorted(missing)} unexpected={sorted(unexpected)}"
            )
        for name, param in own.items():
            view = views[name]
            if view.shape != param.data.shape or view.dtype != param.data.dtype:
                raise ValueError(
                    f"shape/dtype mismatch for {name!r}: shared "
                    f"{view.shape}/{view.dtype} vs module "
                    f"{param.data.shape}/{param.data.dtype}"
                )
            param.data = view
